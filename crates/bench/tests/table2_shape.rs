//! The paper's Table II shape as a seeded check, on the ResNet-20 row
//! (tiny scale, seed 41, target label 2): CFT+BR's single-bit flips all
//! match in DRAM and its attack success rate carries over online, while
//! every baseline's clustered flips mostly miss and its online ASR
//! collapses.
//!
//! `exp table2` regenerates the full grid; EXPERIMENTS.md lists the
//! measured row.

use rhb_bench::experiments::{table2_cell, Table2Row};
use rhb_bench::scale::Scale;
use rhb_core::pipeline::AttackMethod;
use rhb_models::zoo::Architecture;

fn resnet20(method: AttackMethod) -> Table2Row {
    table2_cell(Architecture::ResNet20, method, Scale::Tiny, 41)
}

/// Baselines: at most 3% of the wanted flips match, and the online ASR
/// falls at least 50 points below the offline ASR.
fn assert_collapses_online(method: AttackMethod) {
    let row = resnet20(method);
    assert!(row.r_match <= 3.0, "r_match: {row:?}");
    assert!(row.online_asr <= row.offline_asr - 50.0, "ASR: {row:?}");
}

#[test]
fn cft_br_matches_its_flips_and_keeps_its_asr_online() {
    let row = resnet20(AttackMethod::CftBr);
    assert!(row.r_match >= 99.0, "r_match: {row:?}");
    assert!(
        (row.online_asr - row.offline_asr).abs() <= 5.0,
        "ASR: {row:?}"
    );
}

#[test]
fn badnet_collapses_online() {
    assert_collapses_online(AttackMethod::BadNet);
}

#[test]
fn ft_collapses_online() {
    assert_collapses_online(AttackMethod::Ft);
}

#[test]
fn tbt_collapses_online() {
    assert_collapses_online(AttackMethod::Tbt);
}

#[test]
fn cft_collapses_online() {
    assert_collapses_online(AttackMethod::Cft);
}

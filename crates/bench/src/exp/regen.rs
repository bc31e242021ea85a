//! The paper regenerators: one per table and figure of the evaluation
//! (plus the ablation). Each takes no flags and returns the text that
//! `exp <name>` prints and, where one is committed, `results/<name>.txt`
//! records.

use crate::experiments;
use crate::report;
use crate::scale::Scale;
use rhb_dram::placement::steer_weight_file;
use rhb_models::zoo::Architecture;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Table I: average bit flips per page for all 20 chips.
pub fn table1() -> String {
    report::table1(&experiments::table1(2048, 1))
}

/// Table II: the five methods on the five victims, offline and online.
/// `RHB_ARCHS=cifar|imagenet|all` restricts the victim set (default
/// cifar); `RHB_SCALE=tiny|standard` sets the victim size. With
/// telemetry on, a per-phase timing table follows.
pub fn table2() -> String {
    let scale = Scale::from_env();
    let archs: Vec<Architecture> = match std::env::var("RHB_ARCHS").as_deref() {
        Ok("all") => Architecture::ALL[..5].to_vec(),
        Ok("imagenet") => vec![Architecture::ResNet34, Architecture::ResNet50],
        _ => vec![
            Architecture::ResNet20,
            Architecture::ResNet32,
            Architecture::ResNet18,
        ],
    };
    rhb_telemetry::progress!(
        "running Table II at scale {} over {} victims…",
        scale.name(),
        archs.len()
    );
    let mut out = report::table2(&experiments::table2(&archs, scale, 41));
    if rhb_telemetry::enabled() {
        out.push_str(&report::phase_timings(&rhb_telemetry::report()));
    }
    out
}

/// Table III: CFT+BR on VGG-11/16.
pub fn table3() -> String {
    report::table3(&experiments::table3(Scale::from_env(), 51))
}

/// Table IV (Appendix D): BadNet restore-percentage sweep.
pub fn table4() -> String {
    report::table4(&experiments::table4(Scale::from_env(), 61))
}

/// Fig. 2: flip sparsity of the templated buffer.
pub fn fig2() -> String {
    report::fig2(&experiments::fig2(32_768, 2))
}

/// Fig. 4: the page-frame-cache placement anti-diagonal — the first
/// weight-file pages land on the last-released frames.
pub fn fig4() -> String {
    let bait: Vec<usize> = (1000..1016).collect();
    let plan = steer_weight_file(16, &HashMap::new(), &bait).expect("bait covers the file");
    let mut out =
        String::from("Fig. 4: file page -> physical frame (release order was reversed)\n");
    for (page, frame) in plan.frame_of_page.iter().enumerate() {
        let _ = writeln!(out, "  page {page:>2} -> frame {frame}");
    }
    out
}

/// Fig. 5: flips on an 8 MB buffer vs n-sided pattern.
pub fn fig5() -> String {
    report::series(
        "Fig. 5: flips vs sides (8MB, DDR4 K1)",
        &experiments::fig5(3),
    )
}

/// Fig. 6: per-page flips, 15- vs 7-sided hammering.
pub fn fig6() -> String {
    report::fig6(&experiments::fig6(4))
}

/// Fig. 7: the CFT+BR loss trace with bit-reduction spikes.
pub fn fig7() -> String {
    let scale = Scale::from_env();
    let mut out = format!(
        "Fig. 7 (scale: {}): iteration, loss, bit_reduced\n",
        scale.name()
    );
    for p in experiments::fig7(scale, 7) {
        let _ = writeln!(
            out,
            "{:>6} {:>10.4} {}",
            p.iteration,
            p.loss,
            if p.bit_reduced { "BR" } else { "" }
        );
    }
    out
}

/// Fig. 8: saliency focus shift onto the trigger.
pub fn fig8() -> String {
    report::fig8(&experiments::fig8(Scale::from_env(), 71))
}

/// Fig. 9: P(find page) vs page count for k+l in 1..=3 on K1.
pub fn fig9() -> String {
    experiments::fig9()
        .iter()
        .map(|(k, curve)| report::series(&format!("Fig. 9, k+l = {k} (chip K1)"), curve))
        .collect()
}

/// Fig. 10: single-offset P(find page) for every chip.
pub fn fig10() -> String {
    experiments::fig10()
        .iter()
        .map(|(tag, curve)| report::series(&format!("Fig. 10, chip {tag}"), curve))
        .collect()
}

/// Fig. 11: SPOILER timing peaks and detected contiguity.
pub fn fig11() -> String {
    let (latencies, windows) = experiments::fig11(81);
    let mut out = format!(
        "Fig. 11: {} pages scanned; detected contiguous windows:\n",
        latencies.len()
    );
    for (start, len) in &windows {
        let _ = writeln!(out, "  pages {start}..{} ({len} pages)", start + len);
    }
    let peaks = latencies.iter().filter(|&&l| l > 250.0).count();
    let _ = writeln!(out, "{peaks} timing peaks above threshold");
    out
}

/// Fig. 12: row-buffer-conflict latency distribution.
pub fn fig12() -> String {
    let (latencies, frac) = experiments::fig12(91);
    let slow = latencies.iter().filter(|&&l| l > 315.0).count();
    let fast = latencies.len() - slow;
    format!(
        "Fig. 12: {fast} fast (~230 cyc) vs {slow} slow (~400 cyc) accesses\n\
         conflict fraction {frac:.4} (expected ~1/16 = 0.0625 on a 16-bank device)\n"
    )
}

/// Fig. 13: bit-flip page spread, CFT+BR vs TBT.
pub fn fig13() -> String {
    report::fig13(&experiments::fig13(Scale::from_env(), 101))
}

/// §IV-A2: the worked probabilities of Eqs. 1-2.
pub fn prob() -> String {
    experiments::headline_probabilities()
        .iter()
        .map(|(k, p)| format!("P(target page | {k} offsets, 128MB) = {p:.6}\n"))
        .collect()
}

/// §VII: the attack-time model.
pub fn attack_time() -> String {
    let mut out =
        String::from("§VII attack time: N_flip, 7-sided total (ms), 15-sided total (ms)\n");
    for (n, t7, t15) in experiments::attack_time_model() {
        let _ = writeln!(out, "{n:>6} {t7:>12} {t15:>12}");
    }
    out
}

/// §VI-A: binarization-aware training and PWC.
pub fn defense_prevention() -> String {
    report::prevention(&experiments::defense_prevention(Scale::from_env(), 111))
}

/// §VI-B: DeepDyve, weight encoding, RADAR (and the adaptive bypass).
pub fn defense_detection() -> String {
    report::detection(&experiments::defense_detection(Scale::from_env(), 121))
}

/// §VI-C: weight reconstruction, unaware vs aware attacker.
pub fn defense_recovery() -> String {
    report::recovery(&experiments::defense_recovery(Scale::from_env(), 131))
}

/// Appendix F: the Plundervolt negative result.
pub fn plundervolt() -> String {
    report::plundervolt(&experiments::plundervolt(5))
}

/// Ablation of Algorithm 1's design choices (not a paper artifact):
/// trigger learning, alpha, flip budget, and bit masks.
pub fn ablation() -> String {
    report::ablation(&experiments::ablation(Scale::from_env(), 41))
}

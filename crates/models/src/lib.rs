//! Victim-model substrate: architectures, datasets, and training.
//!
//! The paper attacks ResNet-20/32/18 trained on CIFAR-10, ResNet-34/50 on
//! ImageNet, and VGG-11/16. This crate provides depth-faithful, width-scaled
//! Rust implementations of those architectures over the [`rhb_nn`]
//! substrate, plus procedurally generated class-structured datasets
//! ([`data::SynthCifar`], [`data::SynthImageNet`]) that make the victims
//! trainable to high accuracy on a CPU-only budget (see DESIGN.md's
//! substitution table).
//!
//! The [`zoo`] module plays the role of the paper's "pretrained model zoo":
//! [`zoo::pretrained`] deterministically trains and deploys a quantized
//! victim for a given architecture and seed, so every experiment attacks
//! the same model bytes.

pub mod data;
pub mod resnet;
pub mod train;
pub mod vgg;
pub mod zoo;

pub use data::{Dataset, SynthCifar, SynthImageNet};
pub use resnet::ResNetConfig;
pub use train::{TrainConfig, Trainer};
pub use vgg::VggConfig;
pub use zoo::{pretrained, Architecture, PretrainedModel};

//! Programmatic model zoo.
//!
//! The Proteus paper evaluates on torchvision CNNs and HuggingFace
//! transformer encoders (paper §5.1, Figure 6) plus NATS-Bench cells for the
//! NAS case study (§6.1). This crate rebuilds those architectures as
//! [`proteus_graph::Graph`]s with realistic operator sequences, shapes, and
//! block structure — the information the optimizer, partitioner, sentinel
//! generator, and adversary consume.
//!
//! # Example
//!
//! ```
//! use proteus_models::{build, ModelKind};
//! let g = build(ModelKind::ResNet);
//! assert!(g.len() > 50);
//! assert!(proteus_graph::infer_shapes(&g).is_ok());
//! ```

pub mod alexnet;
pub mod blocks;
pub mod decoder;
pub mod densenet;
pub mod gnn;
pub mod inception;
pub mod mobilenet;
pub mod nats;
pub mod resnet;
pub mod transformer;
pub mod unet;
pub mod zoo;

use proteus_graph::Graph;
pub use zoo::Family;

/// The models used throughout the paper's evaluation, plus the modern
/// extensions (decoder / GNN / U-Net) added for the scenario-diversity
/// battery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelKind {
    AlexNet,
    MobileNet,
    ResNet,
    DenseNet,
    GoogleNet,
    ResNeXt,
    Inception,
    MnasNet,
    SEResNet,
    Bert,
    Roberta,
    DistilBert,
    Xlm,
    GptDecoder,
    GraphSage,
    UNet,
}

impl ModelKind {
    /// The paper's evaluation models (Figure 6), in a stable order. The
    /// modern extensions live in [`ModelKind::MODERN`]; the union is
    /// [`zoo::all`].
    pub const ALL: [ModelKind; 13] = [
        ModelKind::AlexNet,
        ModelKind::MobileNet,
        ModelKind::ResNet,
        ModelKind::DenseNet,
        ModelKind::GoogleNet,
        ModelKind::ResNeXt,
        ModelKind::Inception,
        ModelKind::MnasNet,
        ModelKind::SEResNet,
        ModelKind::Bert,
        ModelKind::Roberta,
        ModelKind::DistilBert,
        ModelKind::Xlm,
    ];

    /// The modern architecture families added beyond the paper's tables.
    pub const MODERN: [ModelKind; 3] =
        [ModelKind::GptDecoder, ModelKind::GraphSage, ModelKind::UNet];

    /// The model whose [`ModelKind::name`] is `name`, over the whole
    /// zoo ([`ModelKind::ALL`] and [`ModelKind::MODERN`]).
    pub fn from_name(name: &str) -> Option<ModelKind> {
        ModelKind::ALL
            .into_iter()
            .chain(ModelKind::MODERN)
            .find(|k| k.name() == name)
    }

    /// The lowercase name used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::AlexNet => "alexnet",
            ModelKind::MobileNet => "mobilenet",
            ModelKind::ResNet => "resnet",
            ModelKind::DenseNet => "densenet",
            ModelKind::GoogleNet => "googlenet",
            ModelKind::ResNeXt => "resnext",
            ModelKind::Inception => "inception",
            ModelKind::MnasNet => "mnasnet",
            ModelKind::SEResNet => "seresnet",
            ModelKind::Bert => "bert",
            ModelKind::Roberta => "roberta",
            ModelKind::DistilBert => "distilbert",
            ModelKind::Xlm => "xlm",
            ModelKind::GptDecoder => "gpt-decoder",
            ModelKind::GraphSage => "graphsage",
            ModelKind::UNet => "unet",
        }
    }

    /// True for the transformer (language) models, encoder or decoder.
    pub fn is_language(self) -> bool {
        matches!(
            self,
            ModelKind::Bert
                | ModelKind::Roberta
                | ModelKind::DistilBert
                | ModelKind::Xlm
                | ModelKind::GptDecoder
        )
    }

    /// The model's architecture family.
    pub fn family(self) -> Family {
        match self {
            ModelKind::AlexNet
            | ModelKind::MobileNet
            | ModelKind::ResNet
            | ModelKind::DenseNet
            | ModelKind::GoogleNet
            | ModelKind::ResNeXt
            | ModelKind::Inception
            | ModelKind::MnasNet
            | ModelKind::SEResNet => Family::ConvNet,
            ModelKind::Bert | ModelKind::Roberta | ModelKind::DistilBert | ModelKind::Xlm => {
                Family::Encoder
            }
            ModelKind::GptDecoder => Family::Decoder,
            ModelKind::GraphSage => Family::MessagePassing,
            ModelKind::UNet => Family::UNet,
        }
    }

    /// The model's graph builder as a plain function pointer.
    pub fn builder(self) -> fn() -> Graph {
        match self {
            ModelKind::AlexNet => alexnet::alexnet,
            ModelKind::MobileNet => mobilenet::mobilenet_v2,
            ModelKind::ResNet => resnet::resnet18,
            ModelKind::DenseNet => densenet::densenet,
            ModelKind::GoogleNet => inception::googlenet,
            ModelKind::ResNeXt => resnet::resnext,
            ModelKind::Inception => inception::inception_v3,
            ModelKind::MnasNet => mobilenet::mnasnet,
            ModelKind::SEResNet => resnet::seresnet,
            ModelKind::Bert => transformer::bert,
            ModelKind::Roberta => transformer::roberta,
            ModelKind::DistilBert => transformer::distilbert,
            ModelKind::Xlm => transformer::xlm,
            ModelKind::GptDecoder => decoder::gpt_decoder,
            ModelKind::GraphSage => gnn::graph_sage,
            ModelKind::UNet => unet::diffusion_unet,
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Builds the computational graph of a zoo model.
pub fn build(kind: ModelKind) -> Graph {
    (kind.builder())()
}

/// Builds the paper zoo (excluding NAS samples and the modern extensions;
/// see [`zoo::all`] for the full registry).
pub fn zoo() -> Vec<(ModelKind, Graph)> {
    ModelKind::ALL.iter().map(|&k| (k, build(k))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_graph::infer_shapes;

    #[test]
    fn every_model_validates_and_infers_shapes() {
        for e in zoo::all() {
            let g = (e.build)();
            g.validate()
                .unwrap_or_else(|err| panic!("{}: {err}", e.name));
            infer_shapes(&g).unwrap_or_else(|err| panic!("{}: {err}", e.name));
        }
    }

    #[test]
    fn models_have_realistic_sizes() {
        for e in zoo::all() {
            let n = (e.build)().len();
            assert!(
                (18..=420).contains(&n),
                "{} has unexpected node count {n}",
                e.name
            );
        }
    }

    #[test]
    fn names_match_paper_tables() {
        assert_eq!(ModelKind::ResNet.name(), "resnet");
        assert_eq!(ModelKind::Xlm.name(), "xlm");
        assert_eq!(ModelKind::ALL.len(), 13);
        assert_eq!(ModelKind::MODERN.len(), 3);
        for e in zoo::all() {
            assert_eq!(ModelKind::from_name(e.name), Some(e.kind));
        }
        assert_eq!(ModelKind::from_name("lenet"), None);
    }

    #[test]
    fn language_models_flagged() {
        assert!(ModelKind::Bert.is_language());
        assert!(ModelKind::GptDecoder.is_language());
        assert!(!ModelKind::ResNet.is_language());
        assert!(!ModelKind::GraphSage.is_language());
    }
}

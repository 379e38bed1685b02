//! The traced replay's path through the program's layers: the same public
//! functions the detection engine calls, in the engine's order, each call
//! inside one of the benchmark's spans. Its scores are checked bit for bit
//! against the production path, which is what keeps this mirror honest.

use crate::trace::Recorder;
use decamouflage_core::persist::ThresholdSet;
use decamouflage_core::{MethodId, ScoreVector, SteganalysisDetector, Threshold};
use decamouflage_imaging::filter::{rank_filter, RankKind};
use decamouflage_imaging::scale::{ScaleAlgorithm, ScalerCache};
use decamouflage_imaging::{Image, Size};
use decamouflage_metrics::{mse, SsimConfig, SsimReference};
use decamouflage_serve::service::SERVICE_METHODS;
use decamouflage_spectral::csp::{count_csp_in_spectrum_with_mags, CspConfig};
use decamouflage_spectral::dft2d::dft2_planned;
use std::borrow::Cow;

/// The engine's configuration for the service's three methods, as
/// `DetectionEngine::new` sets it, plus the voting members.
pub struct Pipeline {
    target: Size,
    ssim: SsimConfig,
    csp: CspConfig,
    members: Vec<(MethodId, Threshold)>,
}

/// Work done for one image, for the DFT normaliser.
pub struct Scored {
    pub scores: ScoreVector,
    pub grid: (usize, usize),
}

impl Pipeline {
    pub fn new(target: Size, thresholds: &ThresholdSet) -> Result<Self, String> {
        let members = SERVICE_METHODS
            .iter()
            .map(|&id| {
                thresholds
                    .get(id)
                    .map(|t| (id, t))
                    .ok_or_else(|| format!("no threshold for {}", id.name()))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            target,
            ssim: SsimConfig::default(),
            csp: SteganalysisDetector::for_target(target).config().clone(),
            members,
        })
    }

    /// Scores one validated image with the service's methods.
    pub fn score(&self, rec: &mut Recorder, image: &Image) -> Result<Scored, String> {
        let cache = ScalerCache::global();
        let src = image.size();
        let round_tripped = rec
            .span("scale.round_trip", || {
                let down = cache.get(src, self.target, ScaleAlgorithm::Bilinear)?.apply(image)?;
                cache.get(self.target, src, ScaleAlgorithm::Bilinear)?.apply(&down)
            })
            .map_err(|e| e.to_string())?;
        let filtered = rec
            .span("filter.rank", || rank_filter(image, 2, RankKind::Minimum))
            .map_err(|e| e.to_string())?;
        let mut scores = ScoreVector::splat(f64::NAN);
        let scaling =
            rec.span("metrics.mse", || mse(image, &round_tripped)).map_err(|e| e.to_string())?;
        scores.set(MethodId::ScalingMse, scaling);
        let reference = rec
            .span("metrics.ssim_reference", || SsimReference::new(image, &self.ssim))
            .map_err(|e| e.to_string())?;
        let filtering = rec
            .span("metrics.ssim", || reference.score_against(&filtered))
            .map_err(|e| e.to_string())?;
        scores.set(MethodId::FilteringSsim, filtering);
        let gray: Cow<'_, Image> = rec.span("imaging.luma", || {
            if image.channel_count() == 1 {
                Cow::Borrowed(image)
            } else {
                Cow::Owned(
                    Image::from_gray_plane(
                        image.width(),
                        image.height(),
                        image.luma().into_owned(),
                    )
                    .expect("luma plane is sized width*height"),
                )
            }
        });
        let (spectrum, mags) = rec.span("spectral.dft", || {
            let spectrum = dft2_planned(&gray);
            let mags = spectrum.log_magnitudes();
            (spectrum, mags)
        });
        let csp = rec.span("spectral.csp", || {
            count_csp_in_spectrum_with_mags(&spectrum, &mags, &self.csp).count as f64
        });
        scores.set(MethodId::Csp, csp);
        Ok(Scored { scores, grid: (image.width(), image.height()) })
    }

    /// The service's majority vote over its members.
    pub fn vote(&self, rec: &mut Recorder, scores: &ScoreVector) -> Vec<(MethodId, bool)> {
        rec.span("ensemble.vote", || {
            self.members.iter().map(|&(id, t)| (id, t.is_attack(scores.get(id)))).collect()
        })
    }
}

/// Majority verdict over member votes (a tie is benign).
pub fn majority(votes: &[(MethodId, bool)]) -> bool {
    2 * votes.iter().filter(|(_, v)| *v).count() > votes.len()
}

/// Whether two score vectors agree bit for bit on the service's methods.
pub fn same_scores(a: &ScoreVector, b: &ScoreVector) -> bool {
    SERVICE_METHODS.iter().all(|&id| a.get(id).to_bits() == b.get(id).to_bits())
}

/// The span layer of a successful decode of `format`.
pub fn decode_layer(format: &str) -> &'static str {
    match format {
        "png" => "codec.decode.png",
        "jpeg" => "codec.decode.jpeg",
        "bmp" => "codec.decode.bmp",
        _ => "codec.decode.other",
    }
}

//! Classical (non-neural) detection baselines.
//!
//! The paper motivates deep learning by its robustness to low SNR compared with
//! traditional signal processing (Sec. III). To reproduce that comparison, this module
//! provides two classical baselines:
//!
//! * [`EnergyDetector`] — binary event detection by thresholding the energy ratio in
//!   the siren/horn band (400–1800 Hz) against the full-band energy;
//! * [`SpectralTemplateDetector`] — multi-class nearest-template classification on
//!   time-averaged log-mel spectra built from clean synthesised prototypes.

use crate::dataset::Dataset;
use crate::error::SedError;
use crate::labels::EventClass;
use crate::metrics::ClassificationReport;
use crate::noise::UrbanNoiseSynthesizer;
use crate::sirens::synthesize_event;
use ispot_dsp::stft::StftScratch;
use ispot_features::error::FeatureError;
use ispot_features::mel::MelFilterbank;
use ispot_features::spectrogram::{SpectrogramConfig, SpectrogramExtractor, SpectrogramScale};

/// Binary detector thresholding the band-energy ratio.
#[derive(Debug, Clone)]
pub struct EnergyDetector {
    spectrogram: SpectrogramExtractor,
    sample_rate: f64,
    band_low_hz: f64,
    band_high_hz: f64,
    threshold: f64,
}

impl EnergyDetector {
    /// Creates a detector for audio at `sample_rate` with the default siren band
    /// (400–1800 Hz) and a threshold of 0.5.
    ///
    /// # Errors
    ///
    /// Returns an error if the spectrogram configuration is invalid (never for the
    /// defaults).
    pub fn new(sample_rate: f64) -> Result<Self, SedError> {
        let spectrogram = SpectrogramExtractor::new(SpectrogramConfig {
            frame_len: 512,
            hop: 256,
            fft_size: 512,
            scale: SpectrogramScale::Power,
            ..SpectrogramConfig::default()
        })?;
        Ok(EnergyDetector {
            spectrogram,
            sample_rate,
            band_low_hz: 400.0,
            band_high_hz: 1800.0,
            threshold: 0.5,
        })
    }

    /// Overrides the detection band.
    pub fn with_band(mut self, low_hz: f64, high_hz: f64) -> Self {
        self.band_low_hz = low_hz;
        self.band_high_hz = high_hz.max(low_hz + 1.0);
        self
    }

    /// Overrides the decision threshold on the band-energy ratio (0–1).
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Returns the decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Computes the detection statistic: the fraction of spectral energy inside the
    /// siren/horn band, averaged over the loudest quarter of frames (sirens are
    /// intermittent, so peak frames carry the information).
    ///
    /// # Errors
    ///
    /// Returns an error if the clip is shorter than one analysis frame.
    pub fn band_energy_ratio(&self, audio: &[f64]) -> Result<f64, SedError> {
        let power = self.spectrogram.compute(audio)?;
        let bins = power.num_cols();
        let bin_hz = self.sample_rate / 2.0 / (bins as f64 - 1.0);
        let lo = (self.band_low_hz / bin_hz).floor() as usize;
        let hi = ((self.band_high_hz / bin_hz).ceil() as usize).min(bins - 1);
        let mut ratios: Vec<f64> = power
            .iter_rows()
            .map(|row| {
                let total: f64 = row.iter().sum();
                let band: f64 = row[lo..=hi].iter().sum();
                if total > 1e-15 {
                    band / total
                } else {
                    0.0
                }
            })
            .collect();
        ratios.sort_by(|a, b| b.total_cmp(a));
        let top = (ratios.len() / 4).max(1);
        Ok(ratios[..top].iter().sum::<f64>() / top as f64)
    }

    /// Returns true if an emergency event is detected in `audio`.
    ///
    /// # Errors
    ///
    /// Same as [`EnergyDetector::band_energy_ratio`].
    pub fn detect(&self, audio: &[f64]) -> Result<bool, SedError> {
        Ok(self.band_energy_ratio(audio)? > self.threshold)
    }

    /// Evaluates binary event-detection accuracy on a dataset (any event class counts
    /// as a positive).
    ///
    /// # Errors
    ///
    /// Returns an error if the dataset is empty or a clip cannot be analysed.
    pub fn evaluate(&self, dataset: &Dataset) -> Result<f64, SedError> {
        if dataset.is_empty() {
            return Err(SedError::EmptyDataset);
        }
        let mut correct = 0usize;
        for sample in dataset.samples() {
            let detected = self.detect(&sample.audio)?;
            if detected == sample.label.is_event() {
                correct += 1;
            }
        }
        Ok(correct as f64 / dataset.len() as f64)
    }
}

/// Reusable workspace for the allocation-free
/// [`SpectralTemplateDetector::predict_with_confidence_into`] path.
///
/// All buffers are sized lazily on first use (or pre-sized by
/// [`SpectralTemplateDetector::make_scratch`] and
/// [`SpectralTemplateDetector::reserve_scratch`]) and reused afterwards; one
/// scratch serves one detector at a time. Since the detector itself is
/// immutable after construction, many concurrent streams can share one
/// detector (e.g. behind an `Arc`) while each holds its own scratch.
///
/// The scratch also carries per-stream history: the previous clip and the
/// log-mel column of each of its sub-frames. When the next clip starts with a
/// bit-identical run of the previous one shifted by whole sub-frame hops (a
/// stream's overlapping frames), those columns are copied instead of
/// recomputed. Any other clip computes every column, so sharing one scratch
/// across streams stays correct but forfeits the reuse.
#[derive(Debug, Clone, Default)]
pub struct DetectorScratch {
    /// STFT workspace (windowed frame + complex spectrum).
    stft: StftScratch,
    /// Power spectrum of the current analysis frame.
    power: Vec<f64>,
    /// Mel band energies of the current analysis frame.
    mel: Vec<f64>,
    /// Accumulated (then normalized) mean log-mel feature vector.
    features: Vec<f64>,
    /// The previous clip; empty while `columns` does not belong to it.
    history: Vec<f64>,
    /// `ln(max(mel, 1e-10))` of each sub-frame of `history`, frame-major.
    columns: Vec<f64>,
}

impl DetectorScratch {
    /// Number of leading sub-frames of `audio` whose samples equal, bit for
    /// bit, those `shift` sub-frames into the history.
    fn reusable(&self, audio: &[f64], frame_len: usize, hop: usize, shift: usize) -> usize {
        let Some(prev) = self.history.get(shift * hop..) else {
            return 0;
        };
        let same = audio
            .iter()
            .zip(prev)
            .take_while(|(a, b)| a.to_bits() == b.to_bits())
            .count();
        if same < frame_len {
            0
        } else {
            (same - frame_len) / hop + 1
        }
    }

    /// Finds the first history shift whose columns `audio` can reuse:
    /// `(shift, reused)`, or `(0, 0)` when none matches.
    fn find_reuse(&self, audio: &[f64], frame_len: usize, hop: usize) -> (usize, usize) {
        let shifts = (self.history.len() + hop).saturating_sub(frame_len) / hop;
        (0..shifts)
            .map(|shift| (shift, self.reusable(audio, frame_len, hop, shift)))
            .find(|&(_, reused)| reused > 0)
            .unwrap_or((0, 0))
    }
}

/// Multi-class nearest-template classifier on time-averaged log-mel spectra.
#[derive(Debug, Clone)]
pub struct SpectralTemplateDetector {
    spectrogram: SpectrogramExtractor,
    filterbank: MelFilterbank,
    /// One template per [`EventClass`], indexed by class index.
    templates: Vec<Vec<f64>>,
}

impl SpectralTemplateDetector {
    /// Builds the detector for audio at `sample_rate`, deriving one template per class
    /// from clean synthesised prototypes (and from the noise synthesiser for the
    /// background class).
    ///
    /// # Errors
    ///
    /// Returns an error if feature extraction fails (never for the defaults).
    pub fn new(sample_rate: f64) -> Result<Self, SedError> {
        let spectrogram = SpectrogramExtractor::new(SpectrogramConfig {
            frame_len: 512,
            hop: 256,
            fft_size: 512,
            scale: SpectrogramScale::Power,
            ..SpectrogramConfig::default()
        })?;
        let filterbank = MelFilterbank::new(
            32,
            spectrogram.num_bins(),
            sample_rate,
            50.0,
            sample_rate / 2.0,
        )?;
        let mut templates = Vec::with_capacity(EventClass::COUNT);
        for class in EventClass::ALL {
            let prototype = if class == EventClass::Background {
                UrbanNoiseSynthesizer::new(sample_rate, 12_345).synthesize(2.0)
            } else {
                synthesize_event(class, sample_rate, 2.0)
            };
            let template = Self::mean_log_mel(&spectrogram, &filterbank, &prototype)?;
            templates.push(template);
        }
        Ok(SpectralTemplateDetector {
            spectrogram,
            filterbank,
            templates,
        })
    }

    fn mean_log_mel(
        spectrogram: &SpectrogramExtractor,
        filterbank: &MelFilterbank,
        audio: &[f64],
    ) -> Result<Vec<f64>, SedError> {
        let mut scratch = DetectorScratch::default();
        Self::mean_log_mel_into(spectrogram, filterbank, audio, &mut scratch)?;
        Ok(std::mem::take(&mut scratch.features))
    }

    /// Streaming core of [`SpectralTemplateDetector::mean_log_mel`]: computes the
    /// normalized mean log-mel feature vector into `scratch.features` using only
    /// scratch-owned buffers. Bitwise identical to the batch path (same frame
    /// walk, same per-column accumulation order), but allocation-free in steady
    /// state, and it transforms only the sub-frames the scratch's history does
    /// not already hold.
    fn mean_log_mel_into(
        spectrogram: &SpectrogramExtractor,
        filterbank: &MelFilterbank,
        audio: &[f64],
        scratch: &mut DetectorScratch,
    ) -> Result<(), SedError> {
        let config = spectrogram.config();
        if audio.len() < config.frame_len {
            return Err(FeatureError::SignalTooShort {
                required: config.frame_len,
                actual: audio.len(),
            }
            .into());
        }
        let num_frames = spectrogram.frames_for(audio.len());
        let num_bands = filterbank.num_bands();
        // Columns `shift..shift + reused` of the history are this clip's
        // leading columns. The history is cleared until every column is
        // computed, so a failed call leaves nothing to reuse.
        let (shift, reused) = scratch.find_reuse(audio, config.frame_len, config.hop);
        scratch
            .columns
            .copy_within(shift * num_bands..(shift + reused) * num_bands, 0);
        scratch.columns.resize(num_frames * num_bands, 0.0);
        scratch.history.clear();
        for f in reused..num_frames {
            let start = f * config.hop;
            let frame = &audio[start..start + config.frame_len];
            spectrogram.power_frame_into(frame, &mut scratch.stft, &mut scratch.power)?;
            filterbank.apply_into(&scratch.power, &mut scratch.mel)?;
            let column = &mut scratch.columns[f * num_bands..(f + 1) * num_bands];
            for (c, &m) in column.iter_mut().zip(&scratch.mel) {
                *c = m.max(1e-10).ln();
            }
        }
        scratch.history.extend_from_slice(audio);
        scratch.features.clear();
        scratch.features.resize(num_bands, 0.0);
        for column in scratch.columns.chunks_exact(num_bands) {
            for (acc, &c) in scratch.features.iter_mut().zip(column) {
                *acc += c;
            }
        }
        let mean = &mut scratch.features;
        for v in mean.iter_mut() {
            *v /= num_frames as f64;
        }
        // Normalize to zero mean / unit norm so that the match is level-invariant.
        let mu = mean.iter().sum::<f64>() / mean.len() as f64;
        for v in mean.iter_mut() {
            *v -= mu;
        }
        let norm = mean.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-12);
        for v in mean.iter_mut() {
            *v /= norm;
        }
        Ok(())
    }

    /// Classifies one audio clip by maximum cosine similarity against the class
    /// templates.
    ///
    /// # Errors
    ///
    /// Returns an error if the clip is shorter than one analysis frame.
    pub fn predict(&self, audio: &[f64]) -> Result<EventClass, SedError> {
        Ok(self.predict_with_confidence(audio)?.0)
    }

    /// Classifies one audio clip and also returns a confidence score in `[0, 1]`
    /// (the winning cosine similarity mapped from `[-1, 1]`).
    ///
    /// # Errors
    ///
    /// Returns an error if the clip is shorter than one analysis frame.
    pub fn predict_with_confidence(&self, audio: &[f64]) -> Result<(EventClass, f64), SedError> {
        let mut scratch = self.make_scratch();
        self.predict_with_confidence_into(audio, &mut scratch)
    }

    /// Creates a scratch pre-sized for this detector, so even the first
    /// [`SpectralTemplateDetector::predict_with_confidence_into`] call allocates
    /// nothing.
    pub fn make_scratch(&self) -> DetectorScratch {
        let mut scratch = DetectorScratch {
            stft: self.spectrogram.make_stft_scratch(),
            power: Vec::with_capacity(self.spectrogram.num_bins()),
            mel: Vec::with_capacity(self.filterbank.num_bands()),
            features: Vec::with_capacity(self.filterbank.num_bands()),
            ..DetectorScratch::default()
        };
        scratch.power.resize(self.spectrogram.num_bins(), 0.0);
        scratch.mel.resize(self.filterbank.num_bands(), 0.0);
        scratch
    }

    /// Reserves `scratch`'s history for clips of `clip_len` samples, so a
    /// stream of such clips allocates nothing from its first call on.
    pub fn reserve_scratch(&self, scratch: &mut DetectorScratch, clip_len: usize) {
        let columns = self.spectrogram.frames_for(clip_len) * self.filterbank.num_bands();
        scratch.history.reserve(clip_len);
        scratch.columns.reserve(columns);
    }

    /// Classifies one audio clip using caller-owned scratch memory — the real-time
    /// hot path of the perception pipeline.
    ///
    /// Identical results to
    /// [`predict_with_confidence`](Self::predict_with_confidence), but repeated
    /// calls with the same scratch perform **no heap allocation** in steady state.
    ///
    /// # Errors
    ///
    /// Returns an error if the clip is shorter than one analysis frame.
    pub fn predict_with_confidence_into(
        &self,
        audio: &[f64],
        scratch: &mut DetectorScratch,
    ) -> Result<(EventClass, f64), SedError> {
        Self::mean_log_mel_into(&self.spectrogram, &self.filterbank, audio, scratch)?;
        let features = &scratch.features;
        let mut best = EventClass::Background;
        let mut best_score = f64::NEG_INFINITY;
        for class in EventClass::ALL {
            let template = &self.templates[class.index()];
            let score: f64 = template.iter().zip(features).map(|(a, b)| a * b).sum();
            if score > best_score {
                best_score = score;
                best = class;
            }
        }
        Ok((best, ((best_score + 1.0) / 2.0).clamp(0.0, 1.0)))
    }

    /// Evaluates the template detector on a dataset.
    ///
    /// # Errors
    ///
    /// Returns an error if the dataset is empty or a clip cannot be analysed.
    pub fn evaluate(&self, dataset: &Dataset) -> Result<ClassificationReport, SedError> {
        if dataset.is_empty() {
            return Err(SedError::EmptyDataset);
        }
        let mut truth = Vec::with_capacity(dataset.len());
        let mut predictions = Vec::with_capacity(dataset.len());
        for sample in dataset.samples() {
            truth.push(sample.label);
            predictions.push(self.predict(&sample.audio)?);
        }
        ClassificationReport::from_predictions(&truth, &predictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;

    /// The pre-refactor batch feature path (whole-matrix spectrogram + mel +
    /// column means), kept to pin the streaming scratch path against.
    fn reference_mean_log_mel(detector: &SpectralTemplateDetector, audio: &[f64]) -> Vec<f64> {
        let power = detector.spectrogram.compute(audio).unwrap();
        let mut mel = detector.filterbank.apply_spectrogram(&power).unwrap();
        mel.log_compress(1e-10);
        let mut mean = mel.column_means();
        let mu = mean.iter().sum::<f64>() / mean.len() as f64;
        for v in mean.iter_mut() {
            *v -= mu;
        }
        let norm = mean.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-12);
        for v in mean.iter_mut() {
            *v /= norm;
        }
        mean
    }

    #[test]
    fn scratch_prediction_matches_the_batch_reference() {
        let fs = 16_000.0;
        let detector = SpectralTemplateDetector::new(fs).unwrap();
        let mut scratch = detector.make_scratch();
        for class in EventClass::ALL {
            let clip = if class == EventClass::Background {
                UrbanNoiseSynthesizer::new(fs, 7).synthesize(0.5)
            } else {
                synthesize_event(class, fs, 0.5)
            };
            let streaming = detector
                .predict_with_confidence_into(&clip, &mut scratch)
                .unwrap();
            assert_eq!(scratch.features, reference_mean_log_mel(&detector, &clip));
            assert_eq!(
                streaming,
                detector.predict_with_confidence(&clip).unwrap(),
                "class {class}"
            );
        }
        assert!(detector
            .predict_with_confidence_into(&[0.0; 16], &mut scratch)
            .is_err());
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn sliding_windows_reuse_columns_and_match_the_batch_reference() {
        let fs = 16_000.0;
        let detector = SpectralTemplateDetector::new(fs).unwrap();
        let mut siren = synthesize_event(EventClass::WailSiren, fs, 1.5);
        siren[9_000] = f64::NAN;
        siren[9_001] = -0.0;
        let noise = UrbanNoiseSynthesizer::new(fs, 3).synthesize(1.5);
        let len = 2048;
        let mut scratch = detector.make_scratch();
        detector.reserve_scratch(&mut scratch, len);
        let check = |clip: &[f64], start: usize, scratch: &mut DetectorScratch| {
            let window = &clip[start..start + len];
            let out = detector
                .predict_with_confidence_into(window, scratch)
                .unwrap();
            assert_eq!(
                bits(&scratch.features),
                bits(&reference_mean_log_mel(&detector, window)),
                "window at {start}"
            );
            assert_eq!(out, detector.predict_with_confidence(window).unwrap());
        };
        // Hops that are multiples of the 256-sample sub-hop reuse columns;
        // 1000 permits no reuse.
        for hop in [1024, 512, 256, 1000] {
            let mut previous = None;
            let mut reused = 0;
            for (k, start) in (0..siren.len() - len).step_by(hop).enumerate() {
                // Skipped windows leave gaps, as park-mode gating does.
                if k % 5 == 3 {
                    continue;
                }
                // A different clip interrupts the stream mid-way.
                if k == 6 {
                    check(&noise, start, &mut scratch);
                    previous = None;
                    continue;
                }
                let expected = match previous.map(|p| start - p) {
                    Some(gap) if gap % 256 == 0 && gap + 512 <= len => (len - gap - 512) / 256 + 1,
                    _ => 0,
                };
                let window = &siren[start..start + len];
                assert_eq!(scratch.find_reuse(window, 512, 256).1, expected);
                reused += expected;
                check(&siren, start, &mut scratch);
                previous = Some(start);
            }
            assert_eq!(reused > 0, hop % 256 == 0, "hop {hop}");
        }
    }

    #[test]
    fn energy_detector_separates_clean_siren_from_noise() {
        let fs = 16_000.0;
        let det = EnergyDetector::new(fs).unwrap();
        let siren = synthesize_event(EventClass::WailSiren, fs, 1.0);
        let noise = UrbanNoiseSynthesizer::new(fs, 7).synthesize(1.0);
        let r_siren = det.band_energy_ratio(&siren).unwrap();
        let r_noise = det.band_energy_ratio(&noise).unwrap();
        assert!(r_siren > 0.8, "siren ratio {r_siren}");
        assert!(r_noise < 0.5, "noise ratio {r_noise}");
        assert!(det.detect(&siren).unwrap());
        assert!(!det.detect(&noise).unwrap());
    }

    #[test]
    fn template_detector_classifies_clean_prototypes_correctly() {
        let fs = 16_000.0;
        let det = SpectralTemplateDetector::new(fs).unwrap();
        for class in [
            EventClass::HiLowSiren,
            EventClass::CarHorn,
            EventClass::WailSiren,
        ] {
            let audio = synthesize_event(class, fs, 1.5);
            let predicted = det.predict(&audio).unwrap();
            // Wail and yelp share the same frequency band, so confusing them is
            // acceptable for this baseline; everything else must be exact.
            if class == EventClass::WailSiren {
                assert!(predicted == EventClass::WailSiren || predicted == EventClass::YelpSiren);
            } else {
                assert_eq!(predicted, class, "prototype for {class}");
            }
        }
    }

    #[test]
    fn baselines_beat_chance_at_high_snr_and_degrade_at_low_snr() {
        let fs = 16_000.0;
        let easy = Dataset::generate(
            &DatasetConfig {
                num_samples: 24,
                duration_s: 0.8,
                spatialize: false,
                snr_min_db: 15.0,
                snr_max_db: 20.0,
                background_fraction: 0.5,
                ..DatasetConfig::default()
            },
            9,
        )
        .unwrap();
        let hard = Dataset::generate(
            &DatasetConfig {
                num_samples: 24,
                duration_s: 0.8,
                spatialize: false,
                snr_min_db: -30.0,
                snr_max_db: -25.0,
                background_fraction: 0.5,
                ..DatasetConfig::default()
            },
            9,
        )
        .unwrap();
        let det = EnergyDetector::new(fs).unwrap();
        let easy_acc = det.evaluate(&easy).unwrap();
        let hard_acc = det.evaluate(&hard).unwrap();
        assert!(easy_acc > 0.7, "easy accuracy {easy_acc}");
        assert!(
            hard_acc < easy_acc + 1e-9,
            "hard ({hard_acc}) should not beat easy ({easy_acc})"
        );
    }

    #[test]
    fn errors_on_empty_or_too_short_input() {
        let fs = 16_000.0;
        let energy = EnergyDetector::new(fs).unwrap();
        assert!(energy.band_energy_ratio(&[0.0; 10]).is_err());
        assert!(energy.evaluate(&Dataset::default()).is_err());
        let template = SpectralTemplateDetector::new(fs).unwrap();
        assert!(template.predict(&[0.0; 10]).is_err());
        assert!(template.evaluate(&Dataset::default()).is_err());
    }

    #[test]
    fn threshold_and_band_builders() {
        let det = EnergyDetector::new(16_000.0)
            .unwrap()
            .with_band(300.0, 2000.0)
            .with_threshold(0.6);
        assert_eq!(det.threshold(), 0.6);
    }
}

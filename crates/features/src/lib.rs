//! # ispot-features
//!
//! Acoustic feature extraction for automotive sound analysis.
//!
//! The emergency-sound detectors surveyed in Sec. III of the I-SPOT paper use
//! time–frequency representations as network inputs. This crate implements the ones
//! the workspace consumes, on top of the `ispot-dsp` STFT: spectrograms, the mel
//! filterbank behind the runtime detector's log-mel features, and MFCCs, plus the
//! GCC-PHAT cross-correlation used by the localization front-end.
//!
//! # Example
//!
//! ```
//! use ispot_features::prelude::*;
//!
//! # fn main() -> Result<(), ispot_features::FeatureError> {
//! let fs = 16_000.0;
//! let signal: Vec<f64> = ispot_dsp::generator::Sine::new(1000.0, fs).take(8000).collect();
//! let mfcc = MfccExtractor::new(MfccConfig::default(), fs)?;
//! let features = mfcc.compute(&signal)?;
//! assert_eq!(features.num_cols(), 13);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod gcc;
pub mod matrix;
pub mod mel;
pub mod mfcc;
pub mod spectrogram;

pub use error::FeatureError;
pub use matrix::FeatureMatrix;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::error::FeatureError;
    pub use crate::gcc::{gcc_phat, GccPhat};
    pub use crate::matrix::FeatureMatrix;
    pub use crate::mel::MelFilterbank;
    pub use crate::mfcc::{MfccConfig, MfccExtractor};
    pub use crate::spectrogram::{SpectrogramConfig, SpectrogramExtractor, SpectrogramScale};
}

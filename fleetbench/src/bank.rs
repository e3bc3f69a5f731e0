//! The input bank: a few seeded, rendered multichannel clips every stream
//! replays from, plus the per-stream chunk sequences over them.
//!
//! Every clip is exactly [`CLIP_CHUNKS`] chunks long and a sequence starts on
//! a chunk boundary, so a stream's chunks are borrowed slices of the bank and
//! the generator copies nothing. The bank is shared by all streams, so its
//! size does not grow with the stream count.

use crate::stats::Digest;
use ispot_roadsim::ambience::{AmbienceKind, AmbienceSynthesizer};
use ispot_roadsim::engine::Simulator;
use ispot_roadsim::geometry::Position;
use ispot_roadsim::microphone::MicrophoneArray;
use ispot_roadsim::scene::SceneBuilder;
use ispot_roadsim::source::SoundSource;
use ispot_roadsim::trajectory::Trajectory;
use ispot_sed::noise::UrbanNoiseSynthesizer;
use ispot_sed::sirens::{CarHornSynthesizer, SirenKind, SirenSynthesizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Audio sample rate, Hz.
pub const SAMPLE_RATE: f64 = 16_000.0;
/// Samples per channel in one pushed chunk.
pub const CHUNK: usize = 512;
/// Microphones of the 0.2 m circular array.
pub const CHANNELS: usize = 4;
/// Chunks per clip.
pub const CLIP_CHUNKS: usize = 128;
/// Samples per channel in one clip (4.096 s).
pub const CLIP_LEN: usize = CHUNK * CLIP_CHUNKS;

/// The 4-mic circular array of 0.2 m radius the serve demo uses.
pub fn array() -> MicrophoneArray {
    MicrophoneArray::circular(CHANNELS, 0.2, Position::new(0.0, 0.0, 1.0))
}

/// What a clip carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClipKind {
    /// Road ambience with no event: one or two maskers.
    Ambience,
    /// A siren or horn passing, approaching or crossing, over a masker bed.
    Event,
    /// A parked car's surroundings: two idling engines far below the trigger,
    /// and one short horn blast that wakes it.
    Park,
}

/// One rendered clip.
#[derive(Debug)]
pub struct Clip {
    /// What the clip carries.
    pub kind: ClipKind,
    /// Short description of the rendered scene.
    pub label: String,
    channels: Vec<Vec<f64>>,
}

impl Clip {
    /// Planar views of chunk `index` (taken modulo the clip length).
    pub fn chunk(&self, index: usize) -> [&[f64]; CHANNELS] {
        let start = (index % CLIP_CHUNKS) * CHUNK;
        std::array::from_fn(|c| &self.channels[c][start..start + CHUNK])
    }

    /// Sample `t` of channel `c`, wrapping at the clip end.
    pub fn sample(&self, c: usize, t: usize) -> f64 {
        self.channels[c][t % CLIP_LEN]
    }
}

/// The clips every stream of a run replays.
#[derive(Debug)]
pub struct Bank {
    /// The clips, in render order.
    pub clips: Vec<Clip>,
}

impl Bank {
    /// Renders one clip per entry of `kinds`. The same seed renders a
    /// byte-identical bank.
    ///
    /// # Errors
    ///
    /// Returns the scene or simulator error of a clip that fails to render.
    pub fn render(kinds: &[ClipKind], seed: u64) -> Result<Bank, Box<dyn std::error::Error>> {
        let mut master = StdRng::from_seed(seed);
        let clips = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                // The n-th clip of a kind takes the n-th stratum of it, so
                // every seed covers the same spread of emitters.
                let nth = kinds[..i].iter().filter(|&&k| k == kind).count();
                render_clip(kind, nth, master.random::<u64>())
            })
            .collect::<Result<_, _>>()?;
        Ok(Bank { clips })
    }

    /// Fingerprint of every sample's bits.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for clip in &self.clips {
            for channel in &clip.channels {
                for x in channel {
                    d.word(x.to_bits());
                }
            }
        }
        d.value()
    }

    /// Size of the sample storage in MiB.
    pub fn mib(&self) -> f64 {
        (self.clips.len() * CHANNELS * CLIP_LEN * std::mem::size_of::<f64>()) as f64
            / (1024.0 * 1024.0)
    }
}

/// A stream's input: a clip replayed in a loop from a chunk offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sequence {
    /// Index of the clip in the bank.
    pub clip: usize,
    /// Clip chunk the sequence starts at.
    pub start: usize,
}

impl Sequence {
    /// Planar views of the sequence's chunk `j`.
    pub fn chunk<'a>(&self, bank: &'a Bank, j: usize) -> [&'a [f64]; CHANNELS] {
        bank.clips[self.clip].chunk(self.start + j)
    }

    /// Copies `out[c].len()` samples of every channel starting at sequence
    /// sample `from`.
    pub fn copy_samples(&self, bank: &Bank, from: usize, out: &mut [Vec<f64>]) {
        let clip = &bank.clips[self.clip];
        let base = self.start * CHUNK + from;
        for (c, channel) in out.iter_mut().enumerate() {
            for (i, slot) in channel.iter_mut().enumerate() {
                *slot = clip.sample(c, base + i);
            }
        }
    }
}

/// Seconds of audio in one clip.
fn clip_seconds() -> f64 {
    CLIP_LEN as f64 / SAMPLE_RATE
}

/// A signal of exactly one clip length: synthesised a little long, then cut.
fn exact(mut signal: Vec<f64>) -> Vec<f64> {
    signal.resize(CLIP_LEN, 0.0);
    signal
}

/// A point on a ring of radius `r_range` around the array at height `z`.
fn around(rng: &mut StdRng, r_range: std::ops::Range<f64>, z: f64) -> Position {
    let r = rng.random_range(r_range);
    let az = rng.random_range(0.0..std::f64::consts::TAU);
    Position::new(r * az.cos(), r * az.sin(), z)
}

/// One masker at a fixed bearing: wind, road noise or urban traffic.
///
/// Rain is left out on purpose: the detector classifies `AmbienceKind::Rain`
/// as an event on every frame, which would turn any stream carrying it into
/// a localization workload and make the drive-mix duty cycle depend on the
/// seed.
fn masker(
    rng: &mut StdRng,
    gain: std::ops::Range<f64>,
) -> Result<SoundSource, Box<dyn std::error::Error>> {
    let len = clip_seconds() + 0.1;
    let seed = rng.random::<u64>();
    let signal = match rng.random_range(0usize..3) {
        0 => AmbienceSynthesizer::new(AmbienceKind::Wind, SAMPLE_RATE, seed).synthesize(len)?,
        1 => {
            AmbienceSynthesizer::new(AmbienceKind::RoadNoise, SAMPLE_RATE, seed).synthesize(len)?
        }
        _ => UrbanNoiseSynthesizer::new(SAMPLE_RATE, seed).synthesize(len),
    };
    let position = around(rng, 6.0..14.0, 0.8);
    Ok(SoundSource::new(exact(signal), Trajectory::fixed(position))
        .with_gain(rng.random_range(gain)))
}

/// Emitter `nth % 4` of wail, yelp, hi-low and horn on trajectory `nth % 3`
/// of pass-by, approach and crossing. The seed draws only the side, lane,
/// speed and level, within ranges that keep the emitter above the detector's
/// confidence threshold on nearly every frame, so every seed gives about the
/// same share of frames that localize.
fn event(rng: &mut StdRng, nth: usize) -> (SoundSource, String) {
    let len = clip_seconds() + 0.1;
    let (signal, name) = match nth % 4 {
        0 => (
            SirenSynthesizer::new(SirenKind::Wail, SAMPLE_RATE).synthesize(len),
            "wail",
        ),
        1 => (
            SirenSynthesizer::new(SirenKind::Yelp, SAMPLE_RATE).synthesize(len),
            "yelp",
        ),
        2 => (
            SirenSynthesizer::new(SirenKind::HiLow, SAMPLE_RATE).synthesize(len),
            "hilow",
        ),
        _ => (CarHornSynthesizer::new(SAMPLE_RATE).synthesize(len), "horn"),
    };
    let side = if rng.random::<bool>() { 1.0 } else { -1.0 };
    let (trajectory, shape) = match nth % 3 {
        0 => {
            let lane = side * rng.random_range(3.0..6.0);
            let speed = rng.random_range(8.0..12.0);
            let half = 0.5 * speed * clip_seconds();
            let traj = Trajectory::linear(
                Position::new(-side * half, lane, 1.0),
                Position::new(side * half, lane, 1.0),
                speed,
            );
            (traj, "pass-by")
        }
        1 => {
            let lane = side * rng.random_range(3.0..6.0);
            let traj = Trajectory::linear(
                Position::new(-rng.random_range(20.0..30.0), lane, 1.0),
                Position::new(-6.0, lane, 1.0),
                rng.random_range(8.0..14.0),
            );
            (traj, "approach")
        }
        _ => {
            let speed = rng.random_range(6.0..10.0);
            let x = side * rng.random_range(5.0..8.0);
            let half = 0.5 * speed * clip_seconds();
            let traj = Trajectory::linear(
                Position::new(x, -half, 1.0),
                Position::new(x, half, 1.0),
                speed,
            );
            (traj, "crossing")
        }
    };
    let source = SoundSource::new(exact(signal), trajectory).with_gain(rng.random_range(3.0..4.0));
    (source, format!("{name} {shape}"))
}

/// Renders the `nth` clip of a kind from its own seed.
fn render_clip(kind: ClipKind, nth: usize, seed: u64) -> Result<Clip, Box<dyn std::error::Error>> {
    let mut rng = StdRng::from_seed(seed);
    let mut builder = SceneBuilder::new(SAMPLE_RATE)
        .array(array())
        .reflection(true)
        .air_absorption(false)
        .filter_taps(33);
    let label = match kind {
        ClipKind::Ambience => {
            let n = 1 + nth % 2;
            for _ in 0..n {
                builder = builder.source(masker(&mut rng, 0.05..0.2)?);
            }
            format!("ambience x{n}")
        }
        ClipKind::Event => {
            let (source, label) = event(&mut rng, nth);
            builder = builder.source(source).source(masker(&mut rng, 0.05..0.2)?);
            label
        }
        ClipKind::Park => {
            for _ in 0..2 {
                let idle = UrbanNoiseSynthesizer::new(SAMPLE_RATE, rng.random::<u64>())
                    .with_levels(1.6, 0.15, 0.1)
                    .synthesize(clip_seconds() + 0.1);
                let position = around(&mut rng, 3.0..6.0, 0.6);
                builder = builder.source(
                    SoundSource::new(exact(idle), Trajectory::fixed(position)).with_gain(0.06),
                );
            }
            // A fixed blast length and level keep the wake share the same for
            // every seed; only where and when it sounds varies.
            let blast = 0.4;
            let onset = rng.random_range(0.5..clip_seconds() - blast - 0.2);
            let horn = CarHornSynthesizer::new(SAMPLE_RATE).synthesize(blast);
            let position = around(&mut rng, 6.0..8.0, 1.0);
            builder = builder.source(
                SoundSource::new(horn, Trajectory::fixed(position))
                    .with_start(onset)
                    .with_gain(2.0),
            );
            format!("park horn@{onset:.2}s")
        }
    };
    let audio = Simulator::new(builder.build()?)?.run_with_threads(1)?;
    let channels = audio.into_channels().into_iter().map(exact).collect();
    Ok(Clip {
        kind,
        label,
        channels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_renders_the_same_bank() {
        let kinds = [ClipKind::Park, ClipKind::Event];
        let a = Bank::render(&kinds, 7).unwrap();
        let b = Bank::render(&kinds, 7).unwrap();
        let c = Bank::render(&kinds, 8).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.clips[1].chunk(0)[0].len(), CHUNK);
    }

    #[test]
    fn sequences_wrap_on_chunk_boundaries() {
        let bank = Bank::render(&[ClipKind::Ambience], 1).unwrap();
        let seq = Sequence {
            clip: 0,
            start: CLIP_CHUNKS - 1,
        };
        assert_eq!(seq.chunk(&bank, 1), bank.clips[0].chunk(0));
        let mut out = vec![vec![0.0; 2 * CHUNK]; CHANNELS];
        seq.copy_samples(&bank, 0, &mut out);
        let (first, second) = (seq.chunk(&bank, 0), seq.chunk(&bank, 1));
        for (c, channel) in out.iter().enumerate() {
            assert_eq!(&channel[..CHUNK], first[c]);
            assert_eq!(&channel[CHUNK..], second[c]);
        }
    }
}

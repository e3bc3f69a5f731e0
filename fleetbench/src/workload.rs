//! The three workloads: what each stream carries, how many streams share the
//! host, and why the workload exists.

use crate::bank::{Bank, ClipKind, Sequence, CLIP_CHUNKS};
use ispot_core::mode::OperatingMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Streams that replay the same chunk sequence. The correctness replay runs
/// each distinct sequence once, so it costs a quarter of the host's work.
pub const STREAMS_PER_SEQUENCE: usize = 4;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Operating mode of every session.
    pub mode: OperatingMode,
    /// Concurrent streams on the host.
    pub streams: usize,
    /// Clips rendered into the bank.
    pub clips: &'static [ClipKind],
    /// Share of sequences that replay an event clip.
    pub event_share: f64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    // Drive mode, ~10% event streams: detection on every frame, localization
    // rarely.
    Workload {
        name: "drive-mix",
        mode: OperatingMode::Drive,
        streams: 128,
        clips: &[
            ClipKind::Ambience,
            ClipKind::Ambience,
            ClipKind::Ambience,
            ClipKind::Ambience,
            ClipKind::Event,
            ClipKind::Event,
        ],
        event_share: 0.1,
    },
    // Drive mode, every stream a siren or horn: most frames localize and track.
    Workload {
        name: "siren-saturate",
        mode: OperatingMode::Drive,
        streams: 64,
        clips: &[
            ClipKind::Event,
            ClipKind::Event,
            ClipKind::Event,
            ClipKind::Event,
        ],
        event_share: 1.0,
    },
    // Park mode, many streams below the trigger with occasional wake-ups.
    Workload {
        name: "park-idle",
        mode: OperatingMode::Park,
        streams: 512,
        clips: &[
            ClipKind::Park,
            ClipKind::Park,
            ClipKind::Park,
            ClipKind::Park,
        ],
        event_share: 0.0,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The distinct chunk sequences, drawn from `seed`: the first
    /// `event_share` of them replay event clips, the rest the other clips,
    /// each from a random chunk offset.
    pub fn sequences(&self, bank: &Bank, seed: u64) -> Vec<Sequence> {
        let count = self.streams / STREAMS_PER_SEQUENCE;
        let events = (self.event_share * count as f64).round() as usize;
        let of_kind = |event: bool| -> Vec<usize> {
            (0..bank.clips.len())
                .filter(|&i| (bank.clips[i].kind == ClipKind::Event) == event)
                .collect()
        };
        let (event_clips, other_clips) = (of_kind(true), of_kind(false));
        let mut rng = StdRng::from_seed(seed ^ 0x5eed_5e0e_u64);
        (0..count)
            .map(|i| {
                let clip = if i < events {
                    event_clips[i % event_clips.len()]
                } else {
                    other_clips[(i - events) % other_clips.len()]
                };
                Sequence {
                    clip,
                    start: rng.random_range(0..CLIP_CHUNKS),
                }
            })
            .collect()
    }
}

/// Which sequence stream `s` replays.
pub fn sequence_of(stream: usize, sequences: usize) -> usize {
    stream % sequences
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_splits_evenly_into_sequences() {
        for w in WORKLOADS {
            assert_eq!(w.streams % STREAMS_PER_SEQUENCE, 0, "{}", w.name);
            let has_event = w.clips.contains(&ClipKind::Event);
            assert_eq!(has_event, w.event_share > 0.0, "{}", w.name);
            assert!(Workload::named(w.name).is_some());
        }
        assert!(Workload::named("nope").is_none());
    }
}

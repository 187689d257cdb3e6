//! Property-based round-trip tests: arbitrary well-formed traces survive
//! both codecs byte-for-byte at the model level.

use lagalyzer_trace::{binary, text};
use proptest::prelude::*;

#[path = "support/cases.rs"]
mod cases;
#[path = "support/traces.rs"]
mod traces;
use traces::{build_trace, episode_spec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases::or_env(64)))]

    /// Binary round trip preserves the full model.
    #[test]
    fn binary_round_trip(specs in proptest::collection::vec(episode_spec(), 0..10),
                         short in 0u64..1_000_000) {
        let trace = build_trace(&specs, short);
        let mut buf = Vec::new();
        binary::write(&trace, &mut buf).unwrap();
        let back = binary::read(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back.meta(), trace.meta());
        prop_assert_eq!(back.episodes(), trace.episodes());
        prop_assert_eq!(back.short_episode_count(), trace.short_episode_count());
        prop_assert_eq!(back.short_episode_time(), trace.short_episode_time());
    }

    /// Text round trip preserves the full model.
    #[test]
    fn text_round_trip(specs in proptest::collection::vec(episode_spec(), 0..10),
                       short in 0u64..1_000_000) {
        let trace = build_trace(&specs, short);
        let mut buf = Vec::new();
        text::write(&trace, &mut buf).unwrap();
        let back = text::read(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back.meta(), trace.meta());
        prop_assert_eq!(back.episodes(), trace.episodes());
        prop_assert_eq!(back.short_episode_count(), trace.short_episode_count());
        prop_assert_eq!(back.short_episode_time(), trace.short_episode_time());
    }

    /// Binary encoding is deterministic: same trace, same bytes.
    #[test]
    fn binary_encoding_deterministic(specs in proptest::collection::vec(episode_spec(), 0..6)) {
        let trace = build_trace(&specs, 3);
        let mut a = Vec::new();
        let mut b = Vec::new();
        binary::write(&trace, &mut a).unwrap();
        binary::write(&trace, &mut b).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Random garbage never panics the binary reader (it errors instead).
    #[test]
    fn binary_reader_survives_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = binary::read(&mut bytes.as_slice());
    }

    /// Random text never panics the text reader.
    #[test]
    fn text_reader_survives_garbage(s in "\\PC{0,300}") {
        let _ = text::read(s.as_bytes());
    }
}

//! Concrete [`crate::harness::MacroHarness`] implementations for the five
//! macro cell types of the case-study ADC, and the one list of their
//! names that every multi-macro run (campaign, Fig. 4/5, `diag`, the
//! campaign service) selects from.

pub mod bias;
pub mod clockgen;
pub mod comparator;
pub mod decoder;
pub mod ladder;

pub use bias::BiasHarness;
pub use clockgen::ClockgenHarness;
pub use comparator::ComparatorHarness;
pub use decoder::DecoderHarness;
pub use ladder::LadderHarness;

use crate::harness::MacroHarness;

/// The five macro names, in campaign order: each is its harness's
/// [`MacroHarness::name`] (the comparator's production variant).
pub const NAMES: [&str; 5] = [
    "comparator",
    "ladder",
    "bias_gen",
    "clock_gen",
    "decoder_slice",
];

/// The harness of macro `name`, or `None` for a name outside [`NAMES`].
/// `dft` selects the comparator's DfT variant; the other macros have
/// none and ignore it.
pub fn by_name(name: &str, dft: bool) -> Option<Box<dyn MacroHarness>> {
    Some(match name {
        "comparator" if dft => Box::new(ComparatorHarness::dft()),
        "comparator" => Box::new(ComparatorHarness::production()),
        "ladder" => Box::new(LadderHarness),
        "bias_gen" => Box::new(BiasHarness::default()),
        "clock_gen" => Box::new(ClockgenHarness::default()),
        "decoder_slice" => Box::new(DecoderHarness::default()),
        _ => return None,
    })
}

/// The harnesses of the macros in `selection` (all five for `None`), in
/// campaign order whatever the order of `selection`, so a subset reports
/// in the sequence the full run would.
///
/// # Errors
/// A message naming the first unknown macro and the known ones.
pub fn select(
    selection: Option<&[String]>,
    dft: bool,
) -> Result<Vec<Box<dyn MacroHarness>>, String> {
    if let Some(unknown) = selection
        .into_iter()
        .flatten()
        .find(|n| !NAMES.contains(&n.as_str()))
    {
        return Err(format!(
            "unknown macro {unknown:?} (know: {})",
            NAMES.join(", ")
        ));
    }
    Ok(NAMES
        .iter()
        .filter(|name| selection.map_or(true, |s| s.iter().any(|n| n == *name)))
        .map(|name| by_name(name, dft).expect("every listed name has a harness"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_the_harness_names() {
        for name in NAMES {
            let h = by_name(name, false).expect("listed name");
            assert_eq!(h.name(), name);
        }
        assert_eq!(
            by_name("comparator", true).expect("dft").name(),
            "comparator_dft"
        );
        assert_eq!(by_name("ladder", true).expect("ladder").name(), "ladder");
        // Short forms and variant names are not macro names.
        for stale in ["bias", "clockgen", "decoder", "comparator_dft", ""] {
            assert!(by_name(stale, false).is_none(), "{stale:?}");
        }
    }

    #[test]
    fn selection_keeps_campaign_order_and_rejects_unknown_names() {
        let all = select(None, false).expect("all");
        let names: Vec<&str> = all.iter().map(|h| h.name()).collect();
        assert_eq!(names, NAMES);

        let subset = ["decoder_slice".to_string(), "ladder".to_string()];
        let picked = select(Some(&subset), false).expect("subset");
        let names: Vec<&str> = picked.iter().map(|h| h.name()).collect();
        assert_eq!(names, ["ladder", "decoder_slice"]);

        let bad = ["ladder".to_string(), "bias".to_string()];
        let err = select(Some(&bad), false).err().expect("unknown name");
        assert!(err.contains("\"bias\""), "{err}");
    }
}

//! One module per paper artifact. Every module exposes a
//! `compute(&Study) -> …Result` function returning a typed result that
//! implements `Display`, rendering the same rows/series the paper
//! reports.

pub mod ext_maxlen;
pub mod ext_profiles;
pub mod ext_rov;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod sec4;
pub mod sec5;
pub mod sec6;
pub mod summary;
pub mod table1;
pub mod table2;

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::OnceLock;

    use droplens_synth::{World, WorldConfig};

    use crate::Study;

    /// The shared small-world study used by every experiment test. Built
    /// once: world generation plus index construction dominates test
    /// runtime otherwise.
    pub(crate) fn study() -> &'static Study {
        static STUDY: OnceLock<Study> = OnceLock::new();
        STUDY.get_or_init(|| Study::from_world(world()))
    }

    /// The world behind [`study`], for ground-truth comparisons.
    pub(crate) fn world() -> &'static World {
        static WORLD: OnceLock<World> = OnceLock::new();
        WORLD.get_or_init(|| World::generate(42, &WorldConfig::small()))
    }

    /// Seeds of the further small worlds in [`studies`].
    const OTHER_SEEDS: [u64; 8] = [1, 2, 3, 5, 7, 11, 13, 17];

    /// The worlds on which an experiment is checked against its
    /// reference computation, each with a name: the shared study, small
    /// worlds at eight other seeds, and the shared world with nested
    /// ROAs added ([`add_nested_roas`]). Built once.
    pub(crate) fn studies() -> impl Iterator<Item = (String, &'static Study)> {
        static STUDIES: OnceLock<Vec<Study>> = OnceLock::new();
        let others = STUDIES.get_or_init(|| {
            let mut studies = droplens_par::par_map(&OTHER_SEEDS, |&seed| {
                Study::from_world(&World::generate(seed, &WorldConfig::small()))
            });
            let mut nested = World::generate(42, &WorldConfig::small());
            add_nested_roas(&mut nested);
            studies.push(Study::from_world(&nested));
            studies
        });
        let names = OTHER_SEEDS
            .iter()
            .map(|seed| format!("seed {seed}"))
            .chain(["seed 42 with nested ROAs".to_owned()]);
        std::iter::once(("seed 42".to_owned(), study())).chain(names.zip(others))
    }

    /// Add ROAs that nest to `world`: for every fifth ROA event, one
    /// more on the same day for the prefix's parent, and for every
    /// seventh, one for its lower half, each under the same ASN and TAL.
    /// Generated worlds rarely sign a prefix inside another signed one,
    /// so without these a check of Figure 5's signed roots would pass
    /// whatever it did with covered prefixes.
    fn add_nested_roas(world: &mut World) {
        use droplens_rpki::{format::RoaEvent, Roa};
        let mut extra: Vec<RoaEvent> = Vec::new();
        for (i, e) in world.roa_events.iter().enumerate() {
            let around = match (i % 5, i % 7) {
                (0, _) => e.roa.prefix.parent(),
                (_, 0) => e.roa.prefix.children().map(|(lo, _)| lo),
                _ => None,
            };
            if let Some(prefix) = around {
                extra.push(RoaEvent {
                    roa: Roa::new(prefix, e.roa.asn, e.roa.tal),
                    ..e.clone()
                });
            }
        }
        world.roa_events.extend(extra);
        // Chronological again; the stable sort keeps same-day order.
        world.roa_events.sort_by_key(|e| e.date);
    }
}

//! One-stop factory for the evaluated NUCA schemes.
//!
//! A scheme is made of three parts ([`Parts`]): a placement policy, the
//! victim-selection policy of the L3 banks it drives, and an optional
//! compressed data array. [`Scheme`] names the nine evaluated presets and
//! [`Scheme::parts`] is the only place that says what each is made of; the
//! real policy, the criticality predictors and the differential harness's
//! golden twin are all derived from those parts.

use cmp_sim::cache::ReplacementKind;
use cmp_sim::config::SystemConfig;
use cmp_sim::placement::{AccessMeta, CriticalityPredictor, LlcPlacement, NeverCritical};
use cmp_sim::types::{BankId, Cycle};
use compress::CompressSpec;

use crate::criticality::{Cpt, CptConfig};
use crate::mapping::{Coloring, NaiveOracle, PrivateMap, RNuca, ReNuca, SNuca, Wec};

/// The evaluated NUCA schemes: the paper's five (§V), the three
/// wear-management competitors from the related work (the head-to-head
/// study of ROADMAP item 3), and the compressed Re-NUCA variant
/// (ROADMAP item 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Address-interleaved static NUCA.
    SNuca,
    /// Reactive NUCA one-hop clusters.
    RNuca,
    /// Per-core private banks.
    Private,
    /// Perfect wear-leveling oracle with a global directory.
    Naive,
    /// The paper's contribution: criticality-gated hybrid.
    ReNuca,
    /// Mittal's write-endurance-aware hot-bank redirection
    /// (arXiv:1311.0041).
    Wec,
    /// Mittal's epoch-rotated coloring remap (arXiv:1310.8494).
    Coloring,
    /// Ruan et al.'s write-aware replacement over S-NUCA placement
    /// (arXiv:1606.03248).
    Mac,
    /// Re-NUCA placement over an L2C2-style compressed ReRAM data array
    /// (Escuin et al., arXiv:2204.09504): sub-block wear + expansions.
    ReNucaC2,
}

/// The placement policies a scheme can be built on: where in the banked
/// L3 each line lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Address-interleaved static NUCA ([`SNuca`]).
    SNuca,
    /// Reactive NUCA one-hop clusters ([`RNuca`]).
    RNuca,
    /// Per-core private banks ([`PrivateMap`]).
    Private,
    /// Least-written-bank oracle with a global directory ([`NaiveOracle`]).
    Naive,
    /// Criticality-gated S-NUCA/R-NUCA hybrid ([`ReNuca`]).
    ReNuca,
    /// Hot-bank redirection ([`Wec`]).
    Wec,
    /// Epoch-rotated remap ([`Coloring`]).
    Coloring,
}

/// What a scheme is made of: a placement policy plus the bank parts it
/// drives. The defaults below placement are true-LRU banks and an
/// uncompressed data array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parts {
    /// Where lines live.
    pub placement: Placement,
    /// Victim selection of the L3 banks.
    pub replacement: ReplacementKind,
    /// Compressed data array, if any.
    pub compression: Option<CompressSpec>,
}

impl Scheme {
    /// All schemes: the paper's five in their usual presentation order,
    /// then the three related-work competitors, then the compressed
    /// variant.
    pub const ALL: [Scheme; 9] = [
        Scheme::Naive,
        Scheme::SNuca,
        Scheme::ReNuca,
        Scheme::RNuca,
        Scheme::Private,
        Scheme::Wec,
        Scheme::Coloring,
        Scheme::Mac,
        Scheme::ReNucaC2,
    ];

    /// The related-work wear-management competitors (the head-to-head
    /// study's challengers).
    pub const COMPETITORS: [Scheme; 3] = [Scheme::Wec, Scheme::Coloring, Scheme::Mac];

    /// The paper's five schemes in Table III column order — the figure
    /// renderers with paper reference columns use this, not [`Scheme::ALL`].
    pub const PAPER: [Scheme; 5] = [
        Scheme::Naive,
        Scheme::SNuca,
        Scheme::ReNuca,
        Scheme::RNuca,
        Scheme::Private,
    ];

    /// The four baseline schemes of the motivation study (Figure 3).
    pub const BASELINES: [Scheme; 4] =
        [Scheme::SNuca, Scheme::RNuca, Scheme::Private, Scheme::Naive];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::SNuca => "S-NUCA",
            Scheme::RNuca => "R-NUCA",
            Scheme::Private => "Private",
            Scheme::Naive => "Naive",
            Scheme::ReNuca => "Re-NUCA",
            Scheme::Wec => "WEC",
            Scheme::Coloring => "Coloring",
            Scheme::Mac => "MAC",
            Scheme::ReNucaC2 => "Re-NUCA-C2",
        }
    }

    /// The scheme whose [`Scheme::name`] is exactly `name`.
    pub fn from_name(name: &str) -> Option<Scheme> {
        Scheme::ALL.into_iter().find(|s| s.name() == name)
    }

    /// What this scheme is made of under `cfg` (the compression part takes
    /// its sub-block geometry and content seed from the configuration).
    pub fn parts(self, cfg: &SystemConfig) -> Parts {
        let (placement, replacement, compression) = match self {
            Scheme::SNuca => (Placement::SNuca, ReplacementKind::Lru, None),
            Scheme::RNuca => (Placement::RNuca, ReplacementKind::Lru, None),
            Scheme::Private => (Placement::Private, ReplacementKind::Lru, None),
            Scheme::Naive => (Placement::Naive, ReplacementKind::Lru, None),
            Scheme::ReNuca => (Placement::ReNuca, ReplacementKind::Lru, None),
            Scheme::Wec => (Placement::Wec, ReplacementKind::Lru, None),
            Scheme::Coloring => (Placement::Coloring, ReplacementKind::Lru, None),
            Scheme::Mac => (Placement::SNuca, ReplacementKind::WriteAware, None),
            Scheme::ReNucaC2 => (
                Placement::ReNuca,
                ReplacementKind::Lru,
                Some(CompressSpec::new(cfg.l3_subblocks, cfg.compress_seed)),
            ),
        };
        Parts {
            placement,
            replacement,
            compression,
        }
    }

    /// Build the placement policy for this scheme under `cfg`.
    pub fn build_policy(self, cfg: &SystemConfig) -> Box<dyn LlcPlacement> {
        self.parts(cfg).build_policy(self.name(), cfg)
    }

    /// Build the per-core criticality predictors for this scheme: CPTs with
    /// `cpt` configuration when the placement is Re-NUCA, inert predictors
    /// otherwise (their placement ignores criticality).
    pub fn build_predictors(
        self,
        cfg: &SystemConfig,
        cpt: CptConfig,
    ) -> Vec<Box<dyn CriticalityPredictor>> {
        let learns = self.parts(cfg).placement == Placement::ReNuca;
        (0..cfg.n_cores)
            .map(|_| -> Box<dyn CriticalityPredictor> {
                if learns {
                    Box::new(Cpt::new(cpt))
                } else {
                    Box::new(NeverCritical)
                }
            })
            .collect()
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Parts {
    /// Build the real policy from these parts under `cfg`. A bare placement
    /// reports its own name; a placement with non-default bank parts is
    /// wrapped so it reports `name` (the preset's display name) instead.
    pub fn build_policy(self, name: &'static str, cfg: &SystemConfig) -> Box<dyn LlcPlacement> {
        let max_lines = cfg.n_banks * cfg.l3_bank.lines();
        match self.placement {
            Placement::SNuca => self.finish(name, SNuca::new(cfg.n_banks)),
            Placement::RNuca => self.finish(name, RNuca::new(cfg.noc.cols, cfg.noc.rows)),
            Placement::Private => self.finish(name, PrivateMap::new(cfg.n_cores)),
            Placement::Naive => self.finish(
                name,
                NaiveOracle::new(cfg.n_banks, cfg.naive_dir_latency, max_lines),
            ),
            Placement::ReNuca => self.finish(
                name,
                ReNuca::new(cfg.noc.cols, cfg.noc.rows, cfg.tlb_entries, cfg.tlb_assoc),
            ),
            Placement::Wec => self.finish(name, Wec::new(cfg.n_banks, max_lines)),
            Placement::Coloring => self.finish(name, Coloring::new(cfg.n_banks, max_lines)),
        }
    }

    /// Box `placement`, wrapped in [`Composed`] only when a bank part is
    /// not the default — the wrapper is generic, so the hot path keeps
    /// static dispatch inside the one `Box<dyn LlcPlacement>`.
    fn finish<P: LlcPlacement + 'static>(
        self,
        name: &'static str,
        placement: P,
    ) -> Box<dyn LlcPlacement> {
        if self.replacement == ReplacementKind::Lru && self.compression.is_none() {
            Box::new(placement)
        } else {
            Box::new(Composed {
                inner: placement,
                name,
                replacement: self.replacement,
                compression: self.compression,
            })
        }
    }
}

/// A placement policy driving non-default bank parts: forwards every
/// placement hook to `inner` and reports the bank parts to the hierarchy
/// through [`LlcPlacement::l3_replacement`] and
/// [`LlcPlacement::compression`].
struct Composed<P> {
    inner: P,
    name: &'static str,
    replacement: ReplacementKind,
    compression: Option<CompressSpec>,
}

impl<P: LlcPlacement + 'static> LlcPlacement for Composed<P> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn lookup_bank(&mut self, meta: &AccessMeta) -> BankId {
        self.inner.lookup_bank(meta)
    }
    fn fill_bank(&mut self, meta: &AccessMeta) -> BankId {
        self.inner.fill_bank(meta)
    }
    fn on_fill(&mut self, meta: &AccessMeta, bank: BankId) {
        self.inner.on_fill(meta, bank);
    }
    fn on_l3_write(&mut self, bank: BankId) {
        self.inner.on_l3_write(bank);
    }
    fn on_evict(&mut self, line: u64, bank: BankId) {
        self.inner.on_evict(line, bank);
    }
    fn lookup_overhead(&self) -> Cycle {
        self.inner.lookup_overhead()
    }
    fn secondary_bank(&mut self, meta: &AccessMeta) -> Option<BankId> {
        self.inner.secondary_bank(meta)
    }
    fn l3_replacement(&self) -> ReplacementKind {
        self.replacement
    }
    fn compression(&self) -> Option<CompressSpec> {
        self.compression
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_sim::placement::LlcAccessKind;
    use cmp_sim::types::phys_addr;

    fn meta(line: u64, critical: bool) -> AccessMeta {
        AccessMeta {
            core: 0,
            line,
            page: line >> 6,
            pc: 1,
            kind: LlcAccessKind::Demand,
            predicted_critical: critical,
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Scheme::SNuca.name(), "S-NUCA");
        assert_eq!(Scheme::ReNuca.name(), "Re-NUCA");
        assert_eq!(format!("{}", Scheme::Naive), "Naive");
    }

    #[test]
    fn from_name_inverts_name_exactly() {
        for s in Scheme::ALL {
            assert_eq!(Scheme::from_name(s.name()), Some(s));
        }
        assert_eq!(Scheme::from_name("s-nuca"), None, "exact match only");
        assert_eq!(Scheme::from_name("bogus"), None);
    }

    #[test]
    fn build_policy_names_roundtrip() {
        let cfg = SystemConfig::small(16);
        for s in Scheme::ALL {
            let mut p = s.build_policy(&cfg);
            assert_eq!(p.name(), s.name());
            // Smoke: every policy answers a lookup.
            let b = p.lookup_bank(&meta(1234, false));
            assert!(b < cfg.n_banks);
        }
    }

    #[test]
    fn only_the_compressed_scheme_drives_compression() {
        let cfg = SystemConfig::small(16);
        let mut compressing = 0;
        for s in Scheme::ALL {
            let parts = s.parts(&cfg);
            let p = s.build_policy(&cfg);
            assert_eq!(p.compression(), parts.compression, "{s}");
            assert_eq!(p.l3_replacement(), parts.replacement, "{s}");
            if let Some(spec) = p.compression() {
                compressing += 1;
                assert_eq!(spec.sub_blocks, cfg.l3_subblocks);
                assert_eq!(spec.seed, cfg.compress_seed);
            }
        }
        assert_eq!(compressing, 1);
    }

    #[test]
    fn composed_presets_route_like_their_bare_placement() {
        // A preset with non-default bank parts must place exactly like its
        // placement alone, route for route, including stateful placements
        // whose later routes depend on earlier fills and evictions.
        let cfg = SystemConfig::small(16);
        for s in Scheme::ALL {
            let parts = s.parts(&cfg);
            let bare = Parts {
                placement: parts.placement,
                replacement: ReplacementKind::Lru,
                compression: None,
            };
            let mut preset = s.build_policy(&cfg);
            let mut plain = bare.build_policy("bare", &cfg);
            // A small pool of lines revisited under a cache-like protocol:
            // look up, fill when not resident, evict some residents.
            let pool: Vec<u64> = (0..24u64)
                .map(|i| phys_addr((i % 16) as usize, i * 0x1040) >> 6)
                .collect();
            let mut resident: Vec<Option<BankId>> = vec![None; pool.len()];
            for i in 0..600usize {
                let k = (i * 7 + i / 24) % pool.len();
                let (line, m) = (pool[k], meta(pool[k], i % 3 == 0));
                let bank = preset.lookup_bank(&m);
                assert_eq!(bank, plain.lookup_bank(&m), "{s} lookup {i} of {line:#x}");
                match resident[k] {
                    Some(b) if i % 5 == 0 => {
                        preset.on_evict(line, b);
                        plain.on_evict(line, b);
                        resident[k] = None;
                    }
                    Some(_) => {}
                    None => {
                        let fill = preset.fill_bank(&m);
                        assert_eq!(fill, plain.fill_bank(&m), "{s} fill {i} of {line:#x}");
                        for p in [&mut preset, &mut plain] {
                            p.on_fill(&m, fill);
                            p.on_l3_write(fill);
                        }
                        resident[k] = Some(fill);
                    }
                }
            }
            assert_eq!(
                preset.as_any().is_some(),
                plain.as_any().is_some(),
                "{s}: inspection reaches the inner placement"
            );
        }
    }

    #[test]
    fn predictors_match_core_count() {
        let cfg = SystemConfig::small(4);
        for s in Scheme::ALL {
            let preds = s.build_predictors(&cfg, CptConfig::default());
            assert_eq!(preds.len(), 4);
        }
    }

    #[test]
    fn only_renuca_gets_learning_predictors() {
        let cfg = SystemConfig::small(4);
        for s in Scheme::ALL {
            let mut preds = s.build_predictors(&cfg, CptConfig::default());
            // A CPT learns: after a block+commit cycle the PC becomes
            // critical. Inert predictors never do.
            preds[0].predict(9);
            preds[0].on_rob_block(9);
            preds[0].on_load_commit(9, true);
            assert_eq!(
                preds[0].predict(9),
                s.parts(&cfg).placement == Placement::ReNuca,
                "{s}"
            );
        }
    }
}

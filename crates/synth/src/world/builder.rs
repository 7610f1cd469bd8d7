//! The step-by-step world builder.
//!
//! Each `gen_*` method emits one actor population. The RNG is consumed in
//! a fixed order, so a given `(seed, config)` always yields the same
//! world.

use std::collections::BTreeMap;

use droplens_bgp::{CollectorSim, Origination, Peer, PeerId};
use droplens_drop::{DropSnapshot, SblDatabase, SblId, SblRecord};
use droplens_irr::{JournalEntry, JournalOp, RouteObject};
use droplens_net::{Asn, Date, DateRange, Ipv4Prefix, PrefixSet};
use droplens_rir::format::{RowId, SharedSnapshot, SharedStatsFile, StatsRows};
use droplens_rir::{DelegationRecord, Rir};
use droplens_rpki::format::{RoaEvent, RoaOp};
use droplens_rpki::{Roa, Tal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alloc::{plan_slash8s, BlockAllocator};
use crate::sbltext::SblTextGenerator;
use crate::truth::{GroundTruth, HijackKind, ListedTruth, TrueCategory};
use crate::world::World;
use crate::WorldConfig;

/// Free-pool size (addresses) each RIR starts the study with, in
/// [AFRINIC, APNIC, ARIN, LACNIC, RIPE] order (Figure 7 magnitudes).
const INITIAL_POOL: [u64; 5] = [7_000_000, 1_600_000, 3_200_000, 2_800_000, 1_800_000];
/// Free-pool size at study end (LACNIC nearly exhausts).
const END_POOL: [u64; 5] = [5_500_000, 1_000_000, 2_800_000, 200_000, 1_200_000];

/// The suspicious transit of the case study (paper: AS50509).
const CASE_TRANSIT: Asn = Asn(50509);
/// Its downstream partner (paper: AS34665).
const CASE_TRANSIT2: Asn = Asn(34665);
/// The victim origin of the case study (paper: AS263692).
const CASE_ORIGIN: Asn = Asn(263692);
/// The victim's legitimate South American transit (paper: AS21575).
const CASE_LEGIT_TRANSIT: Asn = Asn(21575);
/// Historic origin of two of the pattern prefixes (paper: AS19361).
const CASE_HISTORIC_ORIGIN: Asn = Asn(19361);

/// Common transit pool for ordinary originations.
const TRANSITS: [u32; 7] = [3356, 1299, 174, 6939, 6453, 2914, 3257];

struct Allocation {
    block: Ipv4Prefix,
    rir: Rir,
    date: Date,
    org: String,
    dealloc: Option<Date>,
}

impl Allocation {
    /// True when the stats published on `date` list the block as
    /// delegated.
    fn active_on(&self, date: Date) -> bool {
        self.date <= date && self.dealloc.is_none_or(|d| d > date)
    }

    /// The block's delegated-stats row.
    fn record(&self) -> DelegationRecord {
        DelegationRecord::allocated(
            self.rir,
            country_of(self.rir),
            self.block.network(),
            self.block.address_count(),
            self.date,
            &self.org,
        )
    }
}

struct Listing {
    prefix: Ipv4Prefix,
    sbl: SblId,
    listed: Date,
    removed: Option<Date>,
}

pub(crate) struct Builder {
    cfg: WorldConfig,
    rng: StdRng,
    alloc: BlockAllocator,
    allocations: Vec<Allocation>,
    originations: Vec<Origination>,
    irr: Vec<JournalEntry>,
    roas: Vec<RoaEvent>,
    listings: Vec<Listing>,
    sbl: SblDatabase,
    truth: GroundTruth,
    next_sbl: u32,
    next_bg_asn: u32,
    next_attacker_asn: u32,
    next_owner_asn: u32,
    next_org: u32,
}

impl Builder {
    pub(crate) fn new(seed: u64, cfg: WorldConfig) -> Builder {
        Builder {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            alloc: BlockAllocator::new(),
            allocations: Vec::new(),
            originations: Vec::new(),
            irr: Vec::new(),
            roas: Vec::new(),
            listings: Vec::new(),
            sbl: SblDatabase::new(),
            truth: GroundTruth::default(),
            next_sbl: 200_000,
            next_bg_asn: 100_000,
            next_attacker_asn: 62_000,
            next_owner_asn: 150_000,
            next_org: 0,
        }
    }

    pub(crate) fn build(mut self) -> World {
        let peers = self.populate();
        let _span = droplens_obs::global().span("assemble");
        self.assemble(peers)
    }

    /// Every actor population, in the fixed order the RNG is drawn in;
    /// returns the collector peers.
    fn populate(&mut self) -> Vec<Peer> {
        // Each phase records its wall-clock under the enclosing
        // `synth.generate` span.
        macro_rules! phase {
            ($name:literal, $e:expr) => {{
                let _span = droplens_obs::global().span($name);
                $e
            }};
        }
        let peers = phase!("peers", self.gen_peers());
        // Scripted stories and every explicitly-sized population allocate
        // first; the fillers then absorb whatever delegated space remains
        // (down to each pool's Figure 7 starting level), and the in-study
        // drip + squats draw on the leftover pool.
        phase!("case_study", self.gen_case_study());
        phase!("operator_as0", self.gen_operator_as0());
        phase!("attacker_roa_hijacks", self.gen_attacker_roa_hijacks());
        phase!("background", self.gen_background());
        phase!("idle_holders", self.gen_idle_holders());
        phase!("unrouted_signers", self.gen_unrouted_signers());
        phase!("forged_irr_hijacks", self.gen_forged_irr_hijacks());
        phase!("plain_hijacks", self.gen_plain_hijacks());
        phase!("afrinic_incidents", self.gen_afrinic_incidents());
        phase!("spam_hosting", self.gen_spam_hosting());
        phase!("nr_population", self.gen_nr_population());
        phase!("fillers", self.gen_fillers());
        phase!("in_study_allocations", self.gen_in_study_allocations());
        phase!("unallocated_squats", self.gen_unallocated_squats());
        phase!("rir_as0_tals", self.gen_rir_as0_tals());
        peers
    }

    // ----- small helpers ---------------------------------------------------

    fn day_between(&mut self, from: Date, to: Date) -> Date {
        let span = (to - from).max(0);
        from + self.rng.gen_range(0..=span)
    }

    fn listing_day(&mut self) -> Date {
        let (start, end) = (self.cfg.study_start, self.cfg.study_end - 45);
        self.day_between(start, end)
    }

    fn old_alloc_day(&mut self, from_year: i32, to_year: i32) -> Date {
        Date::from_ymd(
            self.rng.gen_range(from_year..=to_year),
            self.rng.gen_range(1..=12),
            self.rng.gen_range(1..=28),
        )
    }

    fn fresh_bg_asn(&mut self) -> Asn {
        self.next_bg_asn += 1;
        Asn(self.next_bg_asn)
    }

    fn fresh_attacker_asn(&mut self) -> Asn {
        self.next_attacker_asn += 1;
        Asn(self.next_attacker_asn)
    }

    fn fresh_owner_asn(&mut self) -> Asn {
        self.next_owner_asn += 1;
        Asn(self.next_owner_asn)
    }

    fn fresh_org(&mut self, kind: &str) -> String {
        self.next_org += 1;
        format!("ORG-{}-{}", kind, self.next_org)
    }

    fn transit(&mut self) -> Asn {
        Asn(TRANSITS[self.rng.gen_range(0..TRANSITS.len())])
    }

    fn pick_rir(&mut self, weights: [f64; 5]) -> Rir {
        let total: f64 = weights.iter().sum();
        let mut x = self.rng.gen_range(0.0..total);
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return Rir::ALL[i];
            }
            x -= w;
        }
        Rir::RipeNcc
    }

    fn record_allocation(&mut self, block: Ipv4Prefix, rir: Rir, date: Date, org: String) {
        self.allocations.push(Allocation {
            block,
            rir,
            date,
            org,
            dealloc: None,
        });
    }

    fn allocate(&mut self, rir: Rir, len: u8, date: Date, org: String) -> Option<Ipv4Prefix> {
        let block = self.alloc.allocate(rir, len)?;
        self.record_allocation(block, rir, date, org);
        Some(block)
    }

    fn allocate_specific(&mut self, rir: Rir, prefix: Ipv4Prefix, date: Date, org: String) {
        assert!(self.alloc.reserve(rir, prefix), "{prefix} unavailable");
        self.record_allocation(prefix, rir, date, org);
    }

    fn originate(
        &mut self,
        prefix: Ipv4Prefix,
        origin: Asn,
        transits: Vec<Asn>,
        start: Date,
        end: Option<Date>,
    ) {
        let start = start.max(self.cfg.history_start);
        if let Some(e) = end {
            if e <= start {
                return;
            }
        }
        self.originations.push(Origination {
            prefix,
            origin,
            transits,
            start,
            end,
        });
    }

    fn add_roa(&mut self, date: Date, prefix: Ipv4Prefix, asn: Asn, tal: Tal) {
        self.roas.push(RoaEvent {
            date,
            op: RoaOp::Add,
            roa: Roa::new(prefix, asn, tal),
        });
    }

    /// Like [`Builder::add_roa`], but a fifth of operators set a
    /// maxLength longer than the prefix — the RFC-discouraged practice
    /// whose sub-prefix hijack surface Gilad et al. measured and the
    /// `ext_maxlen` experiment quantifies.
    fn add_roa_maybe_maxlen(&mut self, date: Date, prefix: Ipv4Prefix, asn: Asn, tal: Tal) {
        let mut roa = Roa::new(prefix, asn, tal);
        if self.rng.gen_bool(0.2) && prefix.len() < 24 {
            let ml = self
                .rng
                .gen_range(prefix.len() + 1..=24.min(prefix.len() + 6));
            roa = roa.with_max_length(ml);
        }
        self.roas.push(RoaEvent {
            date,
            op: RoaOp::Add,
            roa,
        });
    }

    fn del_roa(&mut self, date: Date, prefix: Ipv4Prefix, asn: Asn, tal: Tal) {
        self.roas.push(RoaEvent {
            date,
            op: RoaOp::Del,
            roa: Roa::new(prefix, asn, tal),
        });
    }

    fn irr_add(&mut self, date: Date, object: RouteObject) {
        self.irr.push(JournalEntry {
            date,
            op: JournalOp::Add,
            object,
        });
    }

    fn irr_del(&mut self, date: Date, object: RouteObject) {
        self.irr.push(JournalEntry {
            date,
            op: JournalOp::Del,
            object,
        });
    }

    fn tal_of(rir: Rir) -> Tal {
        match rir {
            Rir::Afrinic => Tal::Afrinic,
            Rir::Apnic => Tal::Apnic,
            Rir::Arin => Tal::Arin,
            Rir::Lacnic => Tal::Lacnic,
            Rir::RipeNcc => Tal::RipeNcc,
        }
    }

    /// Register a listing plus its SBL record and ground truth. Returns
    /// the index of the truth record for later mutation.
    #[allow(clippy::too_many_arguments)]
    fn list(
        &mut self,
        prefix: Ipv4Prefix,
        cats: Vec<TrueCategory>,
        hijack_kind: Option<HijackKind>,
        asn: Option<Asn>,
        rir: Option<Rir>,
        listed: Date,
        removed: Option<Date>,
        has_record: bool,
    ) -> usize {
        self.next_sbl += 1;
        let sbl = SblId(self.next_sbl);
        if has_record {
            let keywordless = self.rng.gen_bool(0.073);
            let body = SblTextGenerator::body(&mut self.rng, &cats, asn, keywordless);
            self.sbl.insert(SblRecord::new(sbl, body));
        }
        self.listings.push(Listing {
            prefix,
            sbl,
            listed,
            removed,
        });
        self.truth.listed.push(ListedTruth {
            prefix,
            categories: cats,
            hijack_kind,
            malicious_asn: asn,
            rir,
            listed,
            removed,
            withdrew_within_30d: false,
            has_sbl_record: has_record,
            signed_after: None,
            forged_irr: false,
            deallocated: None,
        });
        self.truth.listed.len() - 1
    }

    /// Decide the attacker's withdrawal day given the listing day.
    /// Returns `(end, within_30d)`.
    fn withdrawal(&mut self, listed: Date, rate: f64) -> (Option<Date>, bool) {
        if self.rng.gen_bool(rate) {
            // Mostly after the listing; occasionally the day before (the
            // CDF's −1-day start).
            let delta = if self.rng.gen_bool(0.07) {
                -1
            } else {
                self.rng.gen_range(0..30)
            };
            (Some(listed + delta), true)
        } else if self.rng.gen_bool(0.6) {
            (None, false)
        } else {
            (Some(listed + self.rng.gen_range(60..300)), false)
        }
    }

    // ----- actor populations ----------------------------------------------

    fn gen_peers(&mut self) -> Vec<Peer> {
        (0..self.cfg.peer_count as u32)
            .map(|i| {
                let asn = Asn(2000 + i);
                Peer::new(PeerId(i), asn, format!("route-views/{asn}"))
            })
            .collect()
    }

    /// §6.1 / Figure 4: the RPKI-valid hijack of 132.255.0.0/22 and the
    /// six sibling prefixes announced with the same (origin, transit)
    /// pattern; the /22 and three of the six get DROP-listed on the
    /// paper's date, 2022-03-04.
    fn gen_case_study(&mut self) {
        let case: Ipv4Prefix = lit_prefix("132.255.0.0/22");
        let pattern: Vec<Ipv4Prefix> = [
            "187.19.64.0/20",
            "187.110.192.0/20",
            "191.7.224.0/19",
            "200.150.240.0/20",
            "200.189.64.0/20",
            "200.202.80.0/20",
        ]
        .iter()
        .map(|s| lit_prefix(s))
        .collect();

        // The victim: a Peruvian network with one RPKI-signed prefix.
        self.allocate_specific(
            Rir::Lacnic,
            case,
            Date::from_ymd(2010, 5, 20),
            "PE-VICTIM".into(),
        );
        self.add_roa(Date::from_ymd(2019, 3, 1), case, CASE_ORIGIN, Tal::Lacnic);
        // Routed via the legitimate transit until July 2020, then silence.
        self.originate(
            case,
            CASE_ORIGIN,
            vec![CASE_LEGIT_TRANSIT],
            self.cfg.history_start,
            Some(Date::from_ymd(2020, 7, 1)),
        );

        // Long-abandoned sibling blocks.
        for (i, &p) in pattern.iter().enumerate() {
            self.allocate_specific(
                Rir::Lacnic,
                p,
                Date::from_ymd(2004, 3, 10),
                format!("BR-ABANDONED-{i}"),
            );
        }
        // Two had a different historic origin until mid-2018.
        for &p in &pattern[0..2] {
            self.originate(
                p,
                CASE_HISTORIC_ORIGIN,
                vec![Asn(6939)],
                self.cfg.history_start,
                Some(Date::from_ymd(2018, 6, 1)),
            );
        }

        // The hijack: historic origin via the Russian transit pair.
        let listed = Date::from_ymd(2022, 3, 4);
        self.originate(
            case,
            CASE_ORIGIN,
            vec![CASE_TRANSIT, CASE_TRANSIT2],
            Date::from_ymd(2020, 12, 1),
            Some(Date::from_ymd(2022, 3, 20)),
        );
        for &p in &pattern[0..2] {
            self.originate(
                p,
                CASE_ORIGIN,
                vec![CASE_TRANSIT, CASE_TRANSIT2],
                Date::from_ymd(2020, 12, 15),
                None,
            );
        }
        for &p in &pattern[2..] {
            self.originate(
                p,
                CASE_ORIGIN,
                vec![CASE_TRANSIT, CASE_TRANSIT2],
                Date::from_ymd(2021, 6, 1),
                None,
            );
        }

        // DROP additions on 2022-03-04: the /22 plus three of the six.
        let idx = self.list(
            case,
            vec![TrueCategory::Hijacked],
            Some(HijackKind::RpkiValid),
            Some(CASE_ORIGIN),
            Some(Rir::Lacnic),
            listed,
            None,
            true,
        );
        self.truth.listed[idx].withdrew_within_30d = true; // ends 03-20
        for &p in &[pattern[2], pattern[3], pattern[5]] {
            self.list(
                p,
                vec![TrueCategory::Hijacked],
                Some(HijackKind::RpkiValid),
                Some(CASE_ORIGIN),
                Some(Rir::Lacnic),
                listed,
                None,
                true,
            );
        }

        self.truth.case_study_prefix = Some(case);
        self.truth.case_transit = Some(CASE_TRANSIT);
        self.truth.case_origin = Some(CASE_ORIGIN);
        self.truth.case_pattern_prefixes = std::iter::once(case).chain(pattern).collect();
    }

    /// §6.2.1: the one DROP prefix an operator protected with an AS0 ROA
    /// (45.65.112.0/22: listed 2020-01-28, AS0-signed 2021-05-05, removed
    /// 2021-06-16).
    fn gen_operator_as0(&mut self) {
        let p: Ipv4Prefix = lit_prefix("45.65.112.0/22");
        self.allocate_specific(
            Rir::Lacnic,
            p,
            Date::from_ymd(2012, 9, 1),
            "LAC-OPAS0".into(),
        );
        let owner = self.fresh_owner_asn();
        let t = self.transit();
        self.originate(
            p,
            owner,
            vec![t],
            self.cfg.history_start,
            Some(Date::from_ymd(2019, 12, 15)),
        );
        let listed = Date::from_ymd(2020, 1, 28);
        let removed = Date::from_ymd(2021, 6, 16);
        // The record was gone by collection time (remediated ⇒ NR).
        let idx = self.list(
            p,
            vec![TrueCategory::MaliciousHosting],
            None,
            None,
            Some(Rir::Lacnic),
            listed,
            Some(removed),
            false,
        );
        self.add_roa(Date::from_ymd(2021, 5, 5), p, Asn::AS0, Tal::Lacnic);
        self.truth.listed[idx].signed_after = Some(Date::from_ymd(2021, 5, 5));
        // The route was already gone when Spamhaus listed it, so the
        // withdrawal inference reports it as withdrawn at the lookback
        // boundary.
        self.truth.listed[idx].withdrew_within_30d = true;
        self.truth.operator_as0_prefix = Some(p);
    }

    /// §6.1: two hijacked prefixes whose ROA the attacker appeared to
    /// control — the ROA ASN changed when the BGP origin changed, in the
    /// two years before listing.
    fn gen_attacker_roa_hijacks(&mut self) {
        for _ in 0..2 {
            let rir = Rir::RipeNcc;
            let alloc_date = self.old_alloc_day(2006, 2012);
            let org = self.fresh_org("AROA");
            let Some(block) = self.allocate(rir, 19, alloc_date, org) else {
                continue;
            };
            let first_origin = self.fresh_attacker_asn();
            let second_origin = self.fresh_attacker_asn();
            let listed = self.day_between(self.cfg.study_start + 200, self.cfg.study_end - 60);
            let switch = listed - self.rng.gen_range(200..400);
            let roa_start = switch - self.rng.gen_range(100..300);
            let tal = Self::tal_of(rir);
            // Phase 1: origin A with a matching ROA.
            let t = self.transit();
            self.originate(block, first_origin, vec![t], roa_start - 30, Some(switch));
            self.add_roa(roa_start, block, first_origin, tal);
            // Phase 2: both flip to origin B together.
            self.del_roa(switch, block, first_origin, tal);
            self.add_roa(switch, block, second_origin, tal);
            let (end, withdrew) = self.withdrawal(listed, self.cfg.hj_withdraw_rate);
            let t = self.transit();
            self.originate(block, second_origin, vec![t], switch, end);
            let idx = self.list(
                block,
                vec![TrueCategory::Hijacked],
                Some(HijackKind::AttackerRoa),
                Some(second_origin),
                Some(rir),
                listed,
                None,
                true,
            );
            self.truth.listed[idx].withdrew_within_30d = withdrew;
        }
    }

    /// Background routed-and-allocated prefixes per region: the Table 1
    /// "Never on DROP" denominators and the BGP noise floor.
    fn gen_background(&mut self) {
        const LENGTHS: [(u8, u32); 6] = [(14, 5), (15, 10), (16, 45), (18, 20), (19, 10), (20, 10)];
        for (i, rir) in Rir::ALL.into_iter().enumerate() {
            for _ in 0..self.cfg.background_per_rir[i] {
                let roll = self.rng.gen_range(0..100u32);
                let mut acc = 0;
                let mut len = 16;
                for (l, w) in LENGTHS {
                    acc += w;
                    if roll < acc {
                        len = l;
                        break;
                    }
                }
                // Scaled worlds pack n× the prefixes into the paper's
                // address footprint (see `background_extra_bits`).
                let len = (len + self.cfg.background_extra_bits).min(24);
                let date = self.old_alloc_day(1995, 2018);
                let org = self.fresh_org("BG");
                let Some(block) = self.allocate(rir, len, date, org) else {
                    continue;
                };
                let asn = self.fresh_bg_asn();
                let t = self.transit();
                self.originate(block, asn, vec![t], date, None);
                // A quarter were signed before the study began...
                if self.rng.gen_bool(0.25) {
                    let sign = self.day_between(self.cfg.history_start, self.cfg.study_start - 1);
                    self.add_roa_maybe_maxlen(sign, block, asn, Self::tal_of(rir));
                } else if self.rng.gen_bool(self.cfg.base_signing_rate[i]) {
                    // ...the rest sign during the study at the regional
                    // base rate (Table 1 column 1).
                    let sign = self.day_between(self.cfg.study_start, self.cfg.study_end);
                    self.add_roa_maybe_maxlen(sign, block, asn, Self::tal_of(rir));
                }
            }
        }
    }

    /// Large routed blocks covering the rest of the delegated space, so
    /// that the Figure 5 magnitudes (ROA space, % routed) have a base.
    /// Consumes each pool down to its Figure 7 starting level.
    fn gen_fillers(&mut self) {
        for (i, rir) in Rir::ALL.into_iter().enumerate() {
            let target = INITIAL_POOL[i];
            for len in [10u8, 12, 14, 16] {
                let block_size = 1u64 << (32 - len as u64);
                loop {
                    let available = self.alloc.available(rir).space().addresses();
                    if available < target + block_size {
                        break;
                    }
                    let date = self.old_alloc_day(1995, 2015);
                    let org = self.fresh_org("FILL");
                    let Some(block) = self.allocate(rir, len, date, org) else {
                        break;
                    };
                    let asn = self.fresh_bg_asn();
                    let t = self.transit();
                    self.originate(block, asn, vec![t], date, None);
                    if self.rng.gen_bool(0.30) {
                        let sign = if self.rng.gen_bool(0.5) {
                            self.day_between(self.cfg.history_start, self.cfg.study_start - 1)
                        } else {
                            self.day_between(self.cfg.study_start, self.cfg.study_end)
                        };
                        self.add_roa(sign, block, asn, Self::tal_of(rir));
                    }
                }
            }
        }
    }

    /// Allocated, unrouted, never signed — together with the dark blocks
    /// this is Figure 5's "30 /8s with no ROA" population, ≈61% under
    /// ARIN.
    fn gen_idle_holders(&mut self) {
        for (i, rir) in Rir::ALL.into_iter().enumerate() {
            for _ in 0..self.cfg.idle_blocks_per_rir[i] {
                let date = self.old_alloc_day(1995, 2010);
                let org = self.fresh_org("IDLE");
                self.allocate(rir, 12, date, org);
            }
            // Dark blocks: routed since forever, withdrawn at a random
            // day in the study, never signed. These keep the
            // unsigned-unrouted line near 30 /8s while the unrouted
            // signers move their space into the signed-unrouted bucket.
            for _ in 0..self.cfg.dark_blocks_per_rir[i] {
                let date = self.old_alloc_day(1995, 2010);
                let org = self.fresh_org("DARK");
                let Some(block) = self.allocate(rir, 12, date, org) else {
                    continue;
                };
                let asn = self.fresh_bg_asn();
                let dark_day = self.day_between(self.cfg.study_start, self.cfg.study_end - 30);
                let t = self.transit();
                self.originate(block, asn, vec![t], date, Some(dark_day));
            }
        }
    }

    /// Unrouted-but-signed holders (§6.2.1): Amazon, Prudential, Alibaba
    /// and a small-org tail, ≈6.7 /8s signed non-AS0 and never announced.
    fn gen_unrouted_signers(&mut self) {
        let signers = self.cfg.unrouted_signers.clone();
        for (idx, (name, blocks, sign_date)) in signers.iter().enumerate() {
            let rir = match idx % 3 {
                0 => Rir::Arin,
                1 => Rir::Apnic,
                _ => Rir::RipeNcc,
            };
            let asn = self.fresh_bg_asn();
            for _ in 0..*blocks {
                let date = self.old_alloc_day(1995, 2010);
                let Some(block) = self.allocate(rir, 12, date, format!("ORG-{name}")) else {
                    continue;
                };
                self.add_roa(*sign_date, block, asn, Self::tal_of(rir));
            }
        }
    }

    /// The in-study allocation drip that drains each free pool from its
    /// Figure 7 starting level to its ending level.
    fn gen_in_study_allocations(&mut self) {
        // First days of each month inside the study window.
        let mut months = Vec::new();
        let mut d = self.cfg.study_start.first_of_month();
        while d <= self.cfg.study_end {
            months.push(d);
            let (y, m, _) = d.ymd();
            d = if m == 12 {
                Date::from_ymd(y + 1, 1, 1)
            } else {
                Date::from_ymd(y, m + 1, 1)
            };
        }
        for (i, rir) in Rir::ALL.into_iter().enumerate() {
            let total_blocks = ((INITIAL_POOL[i].saturating_sub(END_POOL[i])) / 65_536) as usize;
            if total_blocks == 0 || months.is_empty() {
                continue;
            }
            let per_month = total_blocks / months.len();
            let mut remainder = total_blocks % months.len();
            for &month in &months {
                let mut n = per_month;
                if remainder > 0 {
                    n += 1;
                    remainder -= 1;
                }
                for _ in 0..n {
                    let day = self.day_between(month, month + 20);
                    let org = self.fresh_org("NEW");
                    let Some(block) = self.allocate(rir, 16, day, org) else {
                        break;
                    };
                    if self.rng.gen_bool(0.8) {
                        let asn = self.fresh_bg_asn();
                        let up = day + self.rng.gen_range(3..20);
                        let t = self.transit();
                        self.originate(block, asn, vec![t], up, None);
                        if self.rng.gen_bool(0.15) {
                            let sign = self.day_between(up, self.cfg.study_end);
                            self.add_roa(sign, block, asn, Self::tal_of(rir));
                        }
                    }
                }
            }
        }
    }

    /// §5 / Figure 3: hijackers who register forged IRR route objects for
    /// abandoned prefixes shortly before announcing them. Three ORG-IDs
    /// cover 49 of the 57; one ORG routes everything through the
    /// suspicious case transit; 13 defunct ASNs appear as origins; two
    /// outliers created the IRR object more than a year *after* the
    /// announcement.
    fn gen_forged_irr_hijacks(&mut self) {
        let n = self.cfg.mix.hj_forged_irr;
        let forger_asns: Vec<Asn> = (0..13).map(|k| Asn(61_001 + k)).collect();
        let orgs = [
            "ORG-FORGE-1".to_owned(),
            "ORG-FORGE-2".to_owned(),
            "ORG-FORGE-3".to_owned(),
        ];
        self.truth.forger_asns = forger_asns.clone();
        self.truth.forger_orgs = orgs.to_vec();

        // ORG-FORGE-1 gets ~15 of the prefixes (scaled to population),
        // ORG-FORGE-2/3 split the next 34; the last 8 use one-off orgs.
        let org1_n = (n * 15 / 57).max(1);
        let shared_n = (n * 49 / 57).max(org1_n);
        for k in 0..n {
            let rir = self.pick_rir([0.05, 0.10, 0.40, 0.15, 0.30]);
            let len = self.rng.gen_range(19..=21);
            let alloc_date = self.old_alloc_day(1998, 2012);
            let org = self.fresh_org("ABANDONED");
            let Some(block) = self.allocate(rir, len, alloc_date, org) else {
                continue;
            };

            let (forge_org, transits) = if k < org1_n {
                (orgs[0].clone(), vec![CASE_TRANSIT])
            } else if k < shared_n {
                let which = 1 + (k % 2);
                (orgs[which].clone(), vec![self.transit()])
            } else {
                (self.fresh_org("MISC"), vec![self.transit()])
            };
            let origin = forger_asns[k % forger_asns.len()];

            // A few targets still carried the owner's ancient route object.
            if k % 12 == 0 {
                let owner_obj = RouteObject::new(block, self.fresh_owner_asn())
                    .with_descr("legacy customer route")
                    .with_maintainer("MAINT-LEGACY");
                self.irr_add(self.cfg.history_start, owner_obj);
            }

            let late = k >= n.saturating_sub(self.cfg.late_irr_outliers);
            let t_irr;
            let bgp_start;
            if late {
                // Outlier: announced first, IRR record created >1yr later.
                bgp_start =
                    self.day_between(self.cfg.study_start - 100, self.cfg.study_start + 100);
                t_irr = bgp_start + self.rng.gen_range(380..480);
            } else {
                t_irr = self.day_between(self.cfg.study_start - 10, self.cfg.study_end - 120);
                bgp_start = t_irr + self.rng.gen_range(1..7);
            }

            let forged = RouteObject::new(block, origin)
                .with_descr("customer announcement")
                .with_maintainer(format!("MAINT-{forge_org}"))
                .with_org(forge_org);
            self.irr_add(t_irr, forged.clone());

            // Spamhaus reacts within weeks, so the forged object is
            // usually less than a month old at listing time (§5's 32%).
            let listed = bgp_start.max(t_irr) + self.rng.gen_range(10..30);
            let (end, withdrew) = self.withdrawal(listed, self.cfg.hj_withdraw_rate);
            self.originate(block, origin, transits, bgp_start, end);

            // 43% of route objects disappear within the month after
            // listing; some more later; the rest linger. (The month-after
            // draw sits above the paper's 43% because the §5 denominator
            // also counts listings whose only object is an owner legacy
            // record, which never gets cleaned up.)
            if self.rng.gen_bool(0.75) {
                let dd = listed + self.rng.gen_range(3..30);
                self.irr_del(dd, forged);
            } else if self.rng.gen_bool(0.4) {
                let dd = listed + self.rng.gen_range(60..200);
                self.irr_del(dd, forged);
            }

            let idx = self.list(
                block,
                vec![TrueCategory::Hijacked],
                Some(HijackKind::ForgedIrr),
                Some(origin),
                Some(rir),
                listed,
                None,
                true,
            );
            self.truth.listed[idx].withdrew_within_30d = withdrew;
            self.truth.listed[idx].forged_irr = true;
        }
    }

    /// Hijacks with a labeled ASN but no matching IRR object. Some
    /// targets still have the owner's old route object (with the owner's
    /// ASN); most have nothing.
    fn gen_plain_hijacks(&mut self) {
        // The case study and attacker-ROA hijacks above already consumed
        // 4 + 2 of this budget.
        let n = self.cfg.mix.hj_labeled_no_irr.saturating_sub(6);
        for k in 0..n {
            let rir = self.pick_rir([0.05, 0.10, 0.40, 0.15, 0.30]);
            let len = self.rng.gen_range(19..=22);
            let alloc_date = self.old_alloc_day(1998, 2014);
            let org = self.fresh_org("ABANDONED");
            let Some(block) = self.allocate(rir, len, alloc_date, org) else {
                continue;
            };
            let origin = self.fresh_attacker_asn();
            if k % 4 == 0 {
                // Owner's stale route object with a different ASN.
                let stale = RouteObject::new(block, self.fresh_owner_asn())
                    .with_descr("legacy route")
                    .with_maintainer("MAINT-LEGACY");
                self.irr_add(self.cfg.history_start, stale);
            }
            let listed = self.listing_day();
            let bgp_start = listed - self.rng.gen_range(14..60);
            let (end, withdrew) = self.withdrawal(listed, self.cfg.hj_withdraw_rate);
            let t = self.transit();
            self.originate(block, origin, vec![t], bgp_start, end);
            let idx = self.list(
                block,
                vec![TrueCategory::Hijacked],
                Some(HijackKind::Plain),
                Some(origin),
                Some(rir),
                listed,
                None,
                true,
            );
            self.truth.listed[idx].withdrew_within_30d = withdrew;
        }
    }

    /// §3.1: the two AFRINIC fraudulent-acquisition incidents — few
    /// prefixes, huge blocks, ≈half the DROP address space, listed in two
    /// clusters.
    fn gen_afrinic_incidents(&mut self) {
        let n = self.cfg.mix.hj_afrinic_incident;
        let big = n / 3; // one third /16s, the rest /19s
        let clusters = [
            (Date::from_ymd(2019, 8, 1), Date::from_ymd(2019, 9, 15)),
            (Date::from_ymd(2021, 2, 1), Date::from_ymd(2021, 3, 15)),
        ];
        let incident_asns = [self.fresh_attacker_asn(), self.fresh_attacker_asn()];
        for k in 0..n {
            let len = if k < big { 16 } else { 19 };
            let which = if k % 2 == 0 { 0 } else { 1 };
            let org = format!("AFR-INCIDENT-{}", which + 1);
            let day = self.old_alloc_day(2013, 2016);
            let Some(block) = self.allocate(Rir::Afrinic, len, day, org) else {
                continue;
            };
            let (c_start, c_end) = clusters[which];
            let listed = self.day_between(c_start, c_end);
            let origin = incident_asns[which];
            let bgp_start = listed - self.rng.gen_range(30..200);
            let (end, withdrew) = self.withdrawal(listed, self.cfg.other_withdraw_rate);
            let t = self.transit();
            self.originate(block, origin, vec![t], bgp_start, end);
            // The incident operators registered route objects for their
            // fraudulently acquired space — it is meant to look owned.
            let obj = RouteObject::new(block, origin)
                .with_descr("network allocation")
                .with_maintainer(format!("MAINT-AFR-{}", which + 1))
                .with_org(format!("ORG-AFR-INCIDENT-{}", which + 1));
            let created = bgp_start - self.rng.gen_range(5..30);
            self.irr_add(created, obj);
            // Hijack-labeled but with no ASN annotation (keeps the "130
            // with a labeled ASN" population exact).
            let idx = self.list(
                block,
                vec![TrueCategory::Hijacked],
                Some(HijackKind::AfrinicIncident),
                None,
                Some(Rir::Afrinic),
                listed,
                None,
                true,
            );
            self.truth.listed[idx].withdrew_within_30d = withdrew;
        }

        // The unlabeled hijacks (179 − 130 − 45 in the paper).
        for _ in 0..self.cfg.mix.hj_unlabeled {
            let rir = self.pick_rir([0.05, 0.10, 0.40, 0.15, 0.30]);
            let day = self.old_alloc_day(2000, 2014);
            let org = self.fresh_org("ABANDONED");
            let Some(block) = self.allocate(rir, 21, day, org) else {
                continue;
            };
            let origin = self.fresh_attacker_asn();
            let listed = self.listing_day();
            let (end, withdrew) = self.withdrawal(listed, self.cfg.hj_withdraw_rate);
            let t = self.transit();
            self.originate(block, origin, vec![t], listed - 30, end);
            let idx = self.list(
                block,
                vec![TrueCategory::Hijacked],
                Some(HijackKind::Plain),
                None,
                Some(rir),
                listed,
                None,
                true,
            );
            self.truth.listed[idx].withdrew_within_30d = withdrew;
        }
    }

    /// Snowshoe spam, known spam operations and malicious hosting:
    /// legitimately allocated space used maliciously. Low withdrawal
    /// rates; MH space sometimes deallocated by the RIR after listing;
    /// still-listed prefixes occasionally sign (Table 1 "Present").
    fn gen_spam_hosting(&mut self) {
        #[derive(Clone, Copy)]
        struct Pop {
            count: usize,
            cats: &'static [TrueCategory],
            min_len: u8,
            max_len: u8,
            asn_mention_rate: f64,
        }
        let pops = [
            Pop {
                count: self.cfg.mix.ss_exclusive,
                cats: &[TrueCategory::Snowshoe],
                min_len: 21,
                max_len: 24,
                asn_mention_rate: 0.07,
            },
            Pop {
                count: self.cfg.mix.ss_plus_hj,
                cats: &[TrueCategory::Snowshoe, TrueCategory::Hijacked],
                min_len: 22,
                max_len: 24,
                // "Snowshoe IP block on Stolen ASx": always ASN-labeled,
                // completing the 130 ASN-labeled hijack population.
                asn_mention_rate: 1.0,
            },
            Pop {
                count: self.cfg.mix.ss_plus_ks,
                cats: &[TrueCategory::Snowshoe, TrueCategory::KnownSpamOp],
                min_len: 22,
                max_len: 24,
                asn_mention_rate: 0.0,
            },
            Pop {
                count: self.cfg.mix.ks_exclusive,
                cats: &[TrueCategory::KnownSpamOp],
                min_len: 20,
                max_len: 22,
                asn_mention_rate: 0.12,
            },
            Pop {
                count: self.cfg.mix.mh_exclusive,
                cats: &[TrueCategory::MaliciousHosting],
                min_len: 19,
                max_len: 21,
                asn_mention_rate: 0.8,
            },
        ];
        for pop in pops {
            for _ in 0..pop.count {
                let rir = self.pick_rir([0.05, 0.15, 0.30, 0.15, 0.35]);
                let len = self.rng.gen_range(pop.min_len..=pop.max_len);
                let alloc_date = self.old_alloc_day(2016, 2020);
                let org = self.fresh_org("SPAM");
                let Some(block) = self.allocate(rir, len, alloc_date, org) else {
                    continue;
                };
                let asn = self.fresh_bg_asn();
                // The listing must postdate the allocation: Spamhaus
                // lists behavior, and the space only misbehaves once the
                // spammer holds and announces it.
                let listed = self
                    .listing_day()
                    .max(alloc_date + 60)
                    .min(self.cfg.study_end - 45);
                let bgp_start = alloc_date.max(listed - self.rng.gen_range(100..400));
                let (end, withdrew) = self.withdrawal(listed, self.cfg.other_withdraw_rate);
                let t = self.transit();
                self.originate(block, asn, vec![t], bgp_start, end);
                self.maybe_owner_route_object(block, asn, listed);
                let mention = self.rng.gen_bool(pop.asn_mention_rate);
                let is_mh = pop.cats.contains(&TrueCategory::MaliciousHosting);
                let idx = self.list(
                    block,
                    pop.cats.to_vec(),
                    None,
                    mention.then_some(asn),
                    Some(rir),
                    listed,
                    None,
                    true,
                );
                self.truth.listed[idx].withdrew_within_30d = withdrew;
                // §4.1: 17.4% of malicious-hosting space deallocated.
                if is_mh && self.rng.gen_bool(self.cfg.mh_dealloc_rate) {
                    // Clamp into the window: a drawn deallocation always
                    // happens (dropping late draws would halve the
                    // effective rate for late listings).
                    let dd = (listed + self.rng.gen_range(100..300)).min(self.cfg.study_end - 5);
                    if let Some(a) = self.allocations.iter_mut().find(|a| a.block == block) {
                        a.dealloc = Some(dd);
                    }
                    self.truth.listed[idx].deallocated = Some(dd);
                }
                // Table 1 "Present on DROP" signing.
                let ri = WorldConfig::rir_index(rir);
                if self.rng.gen_bool(self.cfg.present_signing_rate[ri]) {
                    let sign = self.day_between(listed + 30, self.cfg.study_end);
                    self.add_roa(sign, block, asn, Self::tal_of(rir));
                    self.truth.listed[idx].signed_after = Some(sign);
                }
            }
        }
    }

    /// Figure 6: squats on unallocated space, clustered per region, some
    /// after the AS0 policies landed; plus squats that never get listed
    /// (the §6.2.2 "≈30 prefixes the AS0 TALs would filter").
    fn gen_unallocated_squats(&mut self) {
        let clusters: [(Rir, Vec<(Date, Date)>); 5] = [
            (
                Rir::Afrinic,
                vec![(Date::from_ymd(2019, 10, 1), Date::from_ymd(2020, 6, 30))],
            ),
            (
                Rir::Apnic,
                vec![
                    (Date::from_ymd(2019, 9, 1), Date::from_ymd(2020, 8, 1)),
                    (Date::from_ymd(2021, 1, 1), Date::from_ymd(2021, 12, 1)),
                ],
            ),
            (
                Rir::Arin,
                vec![(Date::from_ymd(2020, 1, 1), Date::from_ymd(2021, 12, 1))],
            ),
            (
                Rir::Lacnic,
                vec![
                    (Date::from_ymd(2020, 3, 1), Date::from_ymd(2020, 9, 30)),
                    (Date::from_ymd(2021, 7, 1), Date::from_ymd(2021, 12, 31)),
                ],
            ),
            (
                Rir::RipeNcc,
                vec![(Date::from_ymd(2019, 8, 1), Date::from_ymd(2021, 10, 1))],
            ),
        ];
        let mut first_lacnic_done = false;
        for (rir, windows) in clusters {
            let i = WorldConfig::rir_index(rir);
            for k in 0..self.cfg.ua_per_rir[i] {
                let len = self.rng.gen_range(20..=22);
                // Carve from the pool *without* recording an allocation:
                // the space stays `available` in the stats files.
                let Some(block) = self.alloc.allocate(rir, len) else {
                    continue;
                };
                let window = &windows[k % windows.len()];
                let listed = self.day_between(window.0, window.1);
                let origin = self.fresh_attacker_asn();
                let bgp_start = listed - self.rng.gen_range(10..40);
                let (end, withdrew) = self.withdrawal(listed, self.cfg.ua_withdraw_rate);
                let t = self.transit();
                self.originate(block, origin, vec![t], bgp_start, end);
                // §5: one unallocated prefix even had an IRR route object.
                if rir == Rir::Lacnic && !first_lacnic_done {
                    first_lacnic_done = true;
                    let org = self.fresh_org("SQUAT");
                    let obj = RouteObject::new(block, origin)
                        .with_descr("customer")
                        .with_maintainer("MAINT-SQUAT")
                        .with_org(org);
                    self.irr_add(bgp_start - 3, obj);
                }
                // The SBL record does not name the squatter's ASN (keeps
                // the hijack-labeled-ASN population at the paper's 130),
                // but the ground truth remembers it.
                let idx = self.list(
                    block,
                    vec![TrueCategory::Unallocated],
                    None,
                    None,
                    Some(rir),
                    listed,
                    None,
                    true,
                );
                self.truth.listed[idx].withdrew_within_30d = withdrew;
                self.truth.listed[idx].malicious_asn = Some(origin);
            }
        }
        // Never-listed squats in APNIC/LACNIC pool space, still announced
        // at study end.
        for k in 0..self.cfg.unlisted_squats {
            let rir = if k % 2 == 0 { Rir::Apnic } else { Rir::Lacnic };
            let Some(block) = self.alloc.allocate(rir, 22) else {
                continue;
            };
            let origin = self.fresh_attacker_asn();
            let start = self.day_between(Date::from_ymd(2021, 1, 1), Date::from_ymd(2021, 12, 1));
            let t = self.transit();
            self.originate(block, origin, vec![t], start, None);
            self.truth.unlisted_squats.push(block);
        }
    }

    /// The removed-from-DROP population (NR): remediated during the
    /// study, record deleted, regional mix per Table 1, post-removal
    /// signing at the paper's per-region rates.
    fn gen_nr_population(&mut self) {
        for (i, rir) in Rir::ALL.into_iter().enumerate() {
            let mut quota = self.cfg.removed_per_rir[i];
            if rir == Rir::Lacnic && self.truth.operator_as0_prefix.is_some() && quota > 0 {
                quota -= 1; // the scripted 45.65.112.0/22 consumed one slot
            }
            for _ in 0..quota {
                let len = self.rng.gen_range(21..=23);
                let alloc_date = self.old_alloc_day(2014, 2019);
                let org = self.fresh_org("REM");
                let Some(block) = self.allocate(rir, len, alloc_date, org) else {
                    continue;
                };
                let abuser = self.fresh_bg_asn();
                let listed = self
                    .day_between(self.cfg.study_start, self.cfg.study_end - 80)
                    .max(alloc_date + 60)
                    .min(self.cfg.study_end - 80);
                let removed = (listed + self.rng.gen_range(60..400)).min(self.cfg.study_end - 5);
                let bgp_start = alloc_date.max(listed - self.rng.gen_range(60..300));
                let (end, withdrew) = self.withdrawal(listed, self.cfg.other_withdraw_rate);
                let t = self.transit();
                self.originate(block, abuser, vec![t], bgp_start, end);
                self.maybe_owner_route_object(block, abuser, listed);
                let idx = self.list(
                    block,
                    vec![TrueCategory::MaliciousHosting],
                    None,
                    None,
                    Some(rir),
                    listed,
                    Some(removed),
                    false, // record gone: the NR bucket
                );
                self.truth.listed[idx].withdrew_within_30d = withdrew;

                // Post-removal RPKI signing (Table 1 "Removed" column).
                if self.rng.gen_bool(self.cfg.removed_signing_rate[i]) {
                    let sign = (removed + self.rng.gen_range(10..200)).min(self.cfg.study_end);
                    let asn = if self.rng.gen_bool(self.cfg.signed_with_different_asn_rate) {
                        self.fresh_owner_asn() // remediated owner's ASN
                    } else {
                        abuser // same ASN as the listing-time origin
                    };
                    self.add_roa(sign, block, asn, Self::tal_of(rir));
                    self.truth.listed[idx].signed_after = Some(sign);
                }
                // §4.1: 8.8% deallocated; for half of them the RIR acted
                // first and Spamhaus removed within the week after.
                if self.rng.gen_bool(self.cfg.removed_dealloc_rate) {
                    let dd = if self.rng.gen_bool(0.5) {
                        removed - self.rng.gen_range(1..7)
                    } else {
                        (removed + self.rng.gen_range(30..120)).min(self.cfg.study_end - 1)
                    };
                    if let Some(a) = self.allocations.iter_mut().find(|a| a.block == block) {
                        a.dealloc = Some(dd);
                    }
                    self.truth.listed[idx].deallocated = Some(dd);
                }
            }
        }
    }

    /// Some operators of legitimately allocated (but abusively used)
    /// space keep IRR route objects, and some abusers register one
    /// shortly before their campaign to look legitimate — §5's 31.7%
    /// prevalence and 32%-created-in-the-month-before statistics.
    fn maybe_owner_route_object(&mut self, block: Ipv4Prefix, asn: Asn, listed: Date) {
        if !self.rng.gen_bool(0.22) {
            return;
        }
        let created = if self.rng.gen_bool(0.25) {
            // Registered on the eve of the campaign.
            listed - self.rng.gen_range(2..26)
        } else {
            listed - self.rng.gen_range(60..600)
        };
        let org = self.fresh_org("OWNER");
        let obj = RouteObject::new(block, asn)
            .with_descr("customer network")
            .with_maintainer(format!("MAINT-{org}"))
            .with_org(org);
        self.irr_add(created, obj.clone());
        // Maintainers purge many of these once the range is blocklisted.
        if self.rng.gen_bool(0.5) {
            let gone = listed + self.rng.gen_range(3..30);
            self.irr_del(gone, obj);
        } else if self.rng.gen_bool(0.3) {
            let gone = listed + self.rng.gen_range(60..250);
            self.irr_del(gone, obj);
        }
    }

    /// The APNIC/LACNIC AS0-for-unallocated policies: on each policy
    /// date, publish AS0 ROAs for every block then in the free pool —
    /// under the RIR's *separate* AS0 TAL.
    fn gen_rir_as0_tals(&mut self) {
        for (rir, tal) in [(Rir::Apnic, Tal::ApnicAs0), (Rir::Lacnic, Tal::LacnicAs0)] {
            let Some(date) = rir.as0_policy_date() else {
                continue;
            };
            for prefix in self.available_at(rir, date).iter() {
                self.add_roa(date, prefix, Asn::AS0, tal);
            }
        }
    }

    /// The free space of `rir` as of `date`: the plan minus allocations
    /// active on that date. Squatted pool space counts as free (the RIR
    /// does not know about squats).
    fn available_at(&self, rir: Rir, date: Date) -> PrefixSet {
        let mut set = plan(rir);
        for a in &self.allocations {
            if a.rir == rir && a.active_on(date) {
                set.remove(a.block);
            }
        }
        set
    }

    // ----- assembly ---------------------------------------------------------

    fn assemble(mut self, peers: Vec<Peer>) -> World {
        let cfg = self.cfg.clone();
        let horizon = cfg.study_end;

        // Collector simulation with DROP-filtering peers.
        let mut sim = CollectorSim::new(peers.clone(), horizon);
        let filter_from = cfg.peer_count - cfg.filtering_peer_count;
        let filtering: Vec<PeerId> = (filter_from..cfg.peer_count)
            .map(|i| PeerId(i as u32))
            .collect();
        for listing in &self.listings {
            let range =
                DateRange::new(listing.listed, listing.removed.unwrap_or(cfg.study_end + 1));
            for &peer in &filtering {
                sim.suppress(peer, listing.prefix, range);
            }
        }
        self.truth.filtering_peers = filtering;

        // Journals must be chronological.
        self.irr.sort_by_key(|e| e.date);
        self.roas.sort_by_key(|e| e.date);

        // The update stream, the daily DROP snapshots and the RIR series
        // read finished populations and build disjoint outputs.
        let (bgp_updates, drop_snapshots, (rir_rows, rir_snapshots)) = droplens_par::join3(
            || sim.updates_for(&self.originations),
            || self.drop_days(),
            || self.rir_series(&self.rir_snapshot_dates()),
        );
        World {
            config: cfg,
            peers,
            bgp_updates,
            irr_journal: self.irr,
            roa_events: self.roas,
            rir_rows,
            rir_snapshots,
            drop_snapshots,
            sbl_db: self.sbl,
            truth: self.truth,
        }
    }

    /// The DROP list of every study day, the days spread over the
    /// workers: each lists the prefixes whose listing is active that day,
    /// with the SBL id of the last such listing.
    fn drop_days(&self) -> Vec<DropSnapshot> {
        let days: Vec<Date> = self.cfg.study_days().iter().collect();
        droplens_par::par_map(&days, |&day| {
            let mut snap = DropSnapshot::new(day);
            for l in &self.listings {
                if l.listed <= day && l.removed.is_none_or(|r| day < r) {
                    snap.insert(l.prefix, Some(l.sbl));
                }
            }
            snap
        })
    }

    /// The dates of the RIR stats snapshots: monthly, plus one at
    /// history start so pre-study status queries resolve. The real
    /// archives are daily; we additionally keep the snapshot of every
    /// allocation-change day inside the window — the informative subset,
    /// and what §4.1's "removed within a week of deallocation" needs for
    /// day precision.
    fn rir_snapshot_dates(&self) -> Vec<Date> {
        let cfg = &self.cfg;
        let mut snapshot_dates = vec![cfg.history_start];
        let mut d = cfg.study_start.first_of_month();
        while d <= cfg.study_end {
            snapshot_dates.push(d);
            let (y, m, _) = d.ymd();
            d = if m == 12 {
                Date::from_ymd(y + 1, 1, 1)
            } else {
                Date::from_ymd(y, m + 1, 1)
            };
        }
        let mut event_dates = Vec::new();
        for a in &self.allocations {
            if let Some(dd) = a.dealloc {
                if dd >= cfg.study_start && dd <= cfg.study_end {
                    event_dates.push(dd);
                }
            }
        }
        event_dates.sort();
        event_dates.dedup();
        // Scaled worlds thin the event days (see
        // `rir_event_snapshot_stride`); stride 1 keeps them all.
        let stride = cfg.rir_event_snapshot_stride.max(1);
        snapshot_dates.extend(event_dates.into_iter().step_by(stride));
        snapshot_dates.sort();
        snapshot_dates.dedup();
        snapshot_dates
    }

    /// Every registry's stats file on each of `dates` (ascending), with
    /// each distinct row stored once. Each registry's series is built on
    /// a worker over a row table of its own; the tables are appended in
    /// [`Rir::ALL`] order, which gives the ids one table filled registry
    /// by registry would.
    fn rir_series(&self, dates: &[Date]) -> (StatsRows, Vec<SharedSnapshot>) {
        let mut rows = StatsRows::default();
        let mut per_rir = Vec::with_capacity(Rir::ALL.len());
        let series = droplens_par::par_map(&Rir::ALL, |&rir| self.registry_series(rir, dates));
        for (table, mut files) in series {
            rows.append(table, &mut files);
            per_rir.push(files.into_iter());
        }
        let snapshots = dates
            .iter()
            .map(|&date| {
                (
                    date,
                    per_rir.iter_mut().filter_map(Iterator::next).collect(),
                )
            })
            .collect();
        (rows, snapshots)
    }

    /// The stats file of `rir` on each of `dates`, over a row table of
    /// its own: one sweep of the dates. A file lists the allocations
    /// active on its date, in allocation order, then the free blocks of
    /// the rest of the registry's plan, stably sorted by start address.
    /// An allocation's row is made on the first date it is active and
    /// reused while it stays active. The free pool is recomputed only
    /// when the active set changed, and a free block already seen keeps
    /// its row; a date where nothing changed shares the previous file's
    /// rows.
    fn registry_series(&self, rir: Rir, dates: &[Date]) -> (StatsRows, Vec<SharedStatsFile>) {
        let mut rows = StatsRows::default();
        let allocations: Vec<&Allocation> =
            self.allocations.iter().filter(|a| a.rir == rir).collect();
        let mut allocated_rows: Vec<Option<RowId>> = vec![None; allocations.len()];
        let mut free_rows: BTreeMap<Ipv4Prefix, RowId> = BTreeMap::new();
        let mut active: Option<Vec<usize>> = None;
        let mut file_rows: Vec<RowId> = Vec::new();
        let mut files = Vec::with_capacity(dates.len());
        for &date in dates {
            let now: Vec<usize> = (0..allocations.len())
                .filter(|&i| allocations[i].active_on(date))
                .collect();
            if active.as_ref() != Some(&now) {
                let mut free = plan(rir);
                file_rows = Vec::with_capacity(file_rows.len());
                for &i in &now {
                    let a = allocations[i];
                    free.remove(a.block);
                    file_rows.push(*allocated_rows[i].get_or_insert_with(|| rows.push(a.record())));
                }
                for prefix in free.iter() {
                    file_rows.push(*free_rows.entry(prefix).or_insert_with(|| {
                        rows.push(DelegationRecord::available(
                            rir,
                            prefix.network(),
                            prefix.address_count(),
                        ))
                    }));
                }
                file_rows.sort_by_key(|&id| u32::from(rows[id].start));
                active = Some(now);
            }
            files.push(SharedStatsFile {
                rir,
                date,
                rows: file_rows.clone(),
            });
        }
        (rows, files)
    }

    /// The stats file of `rir` on `date`, built on its own: the reference
    /// that [`Builder::rir_series`] is tested against.
    #[cfg(test)]
    fn stats_file_at(&self, rir: Rir, date: Date) -> droplens_rir::format::StatsFile {
        let mut records = Vec::new();
        for a in &self.allocations {
            if a.rir == rir && a.active_on(date) {
                records.push(a.record());
            }
        }
        for prefix in self.available_at(rir, date).iter() {
            records.push(DelegationRecord::available(
                rir,
                prefix.network(),
                prefix.address_count(),
            ));
        }
        records.sort_by_key(|r| u32::from(r.start));
        droplens_rir::format::StatsFile { rir, date, records }
    }
}

/// Parse one of the paper's scripted prefix literals. A failure is a
/// typo in the generator itself, not bad input, so it aborts loudly
/// with the offending literal.
#[allow(clippy::panic)] // a generator typo, not bad input: abort loudly
fn lit_prefix(s: &str) -> Ipv4Prefix {
    match s.parse() {
        Ok(p) => p,
        Err(_) => panic!("bad prefix literal in generator: {s}"),
    }
}

/// The whole address space `rir` manages: its /8s.
fn plan(rir: Rir) -> PrefixSet {
    plan_slash8s(rir)
        .iter()
        .map(|&eight| Ipv4Prefix::from_u32((eight as u32) << 24, 8))
        .collect()
}

fn country_of(rir: Rir) -> &'static str {
    match rir {
        Rir::Afrinic => "ZA",
        Rir::Apnic => "AU",
        Rir::Arin => "US",
        Rir::Lacnic => "BR",
        Rir::RipeNcc => "NL",
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use droplens_rir::format::{write_stats_file, StatsFile};

    use super::*;
    use crate::world::write_stats_series;

    type Series = (StatsRows, Vec<SharedSnapshot>);

    /// A builder with every population generated, and its RIR series.
    fn populated(seed: u64, cfg: WorldConfig) -> (Builder, Series) {
        let mut builder = Builder::new(seed, cfg);
        builder.populate();
        let series = builder.rir_series(&builder.rir_snapshot_dates());
        (builder, series)
    }

    fn materialize(rows: &StatsRows, file: &SharedStatsFile) -> StatsFile {
        StatsFile {
            rir: file.rir,
            date: file.date,
            records: file.records(rows).cloned().collect(),
        }
    }

    #[test]
    fn the_sweep_equals_the_per_snapshot_construction() {
        let small = WorldConfig::small;
        // `scaled(2)` keeps every second deallocation day.
        let worlds = [
            (1, small()),
            (2, small()),
            (7, small()),
            (42, small()),
            (3, small().scaled(2)),
        ];
        for (seed, cfg) in worlds {
            let (builder, (rows, snapshots)) = populated(seed, cfg);
            let mut distinct = BTreeSet::new();
            for (date, files) in &snapshots {
                assert_eq!(files.len(), Rir::ALL.len());
                for (rir, file) in Rir::ALL.into_iter().zip(files) {
                    let file = materialize(&rows, file);
                    assert_eq!(
                        file,
                        builder.stats_file_at(rir, *date),
                        "seed {seed}: {rir} on {date}"
                    );
                    distinct.extend(file.records.iter().map(|r| format!("{r:?}")));
                }
            }
            // Every row is listed by some file, and stored once.
            assert_eq!(rows.len(), distinct.len(), "seed {seed}");
        }
    }

    #[test]
    fn drop_days_on_the_workers_equal_the_per_day_scan() {
        for (seed, cfg) in [1, 7, 42]
            .into_iter()
            .flat_map(|seed| [(seed, WorldConfig::small()), (seed, WorldConfig::paper())])
        {
            let mut builder = Builder::new(seed, cfg);
            builder.populate();
            // The loop `drop_days` replaced: every listing tested on
            // every day, one day after another.
            let mut scanned = Vec::new();
            for day in builder.cfg.study_days().iter() {
                let mut snap = DropSnapshot::new(day);
                for l in &builder.listings {
                    if l.listed <= day && l.removed.is_none_or(|r| day < r) {
                        snap.insert(l.prefix, Some(l.sbl));
                    }
                }
                scanned.push(snap);
            }
            assert_eq!(builder.drop_days(), scanned, "seed {seed}");
        }
    }

    #[test]
    fn the_series_writers_equal_the_one_file_writers() {
        let (_, (rows, snapshots)) = populated(1, WorldConfig::small());
        let texts = write_stats_series(&rows, &snapshots);
        assert_eq!(texts.len(), snapshots.len());
        for ((date, files), (text_date, text)) in snapshots.iter().zip(&texts) {
            assert_eq!(text_date, date);
            assert_eq!(text.len(), files.len());
            for (file, text) in files.iter().zip(text) {
                let file = materialize(&rows, file);
                assert_eq!(*text, write_stats_file(&file), "{} on {date}", file.rir);
            }
        }
    }
}

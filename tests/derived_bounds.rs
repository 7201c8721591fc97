//! Every garbage bound a caller asserts against or feeds to a watchdog,
//! pinned as a literal. The bounds are derived in one place per scheme
//! (`SchemeDomain::garbage_bound`); this file catches a change to a
//! derivation that moves a number some caller relies on.
//!
//! One test, alone in its binary: the EBR slack and Table 1's rows read the
//! default domains, which no other test here registers with.

use ds::InDomain;
use kv_service::{EbrStore, HppStore, HyalineStore, NrStore, ShardStore};
use smr_common::SchemeDomain;

#[test]
fn every_callers_bound_is_pinned() {
    // The KV stores (the supervisor's watchdog ceiling and the quarantine
    // check). HP++'s grows with its domain's slots: 0 before the worker
    // registers, 8 after (slots are allocated eight at a time).
    let hpp = HppStore::new_shard(64, Default::default());
    assert_eq!(hpp.garbage_bound(), Some(768));
    let _worker = hpp.handle();
    assert_eq!(hpp.garbage_bound(), Some(800));
    assert_eq!(
        HyalineStore::new_shard(64, Default::default()).garbage_bound(),
        Some(512)
    );
    assert_eq!(
        EbrStore::new_shard(64, Default::default()).garbage_bound(),
        None
    );
    assert_eq!(
        NrStore::new_shard(64, Default::default()).garbage_bound(),
        None
    );

    // Table 1's six rows.
    let table1 = bench::table1::Bounds::derive(hp::Domain::leak_new(), hp_plus::Domain::leak_new());
    let pinned = bench::table1::Bounds {
        ebr: 512,
        pebr: 10240,
        hyaline_stall: 512,
        hyaline_coop: 1280,
        hp: 1024,
        hpp: 3072,
    };
    assert_eq!(table1, pinned);

    // tests/robustness.rs: the registry churn (two handles), PEBR under a
    // stalled pin (2x its three participants), EBR's churn slack.
    assert_eq!(pebr::default_collector().garbage_bound(2), Some(2560));
    assert_eq!(hyaline::default_domain().garbage_bound(2), Some(512));
    assert_eq!(pebr::default_collector().garbage_bound(3), Some(3840));
    assert_eq!(4 * ebr::default_collector().collect_threshold(), 512);
    // ... and the per-step hazard bounds, each at one handle in a private
    // domain whose 8 slots that handle allocated. HP's (144) is new: it
    // replaces a 2x-margin check on the shared default domain (288 there).
    let hpp = hp_plus::Domain::leak_new();
    let _h = ds::hpp::HHSList::<u64, u64>::handle_in(hpp);
    assert_eq!(hpp.garbage_bound(1), Some(400));
    let hp = hp::Domain::leak_new();
    let _h = ds::hp::HMList::<u64, u64>::handle_in(hp);
    assert_eq!(hp.garbage_bound(1), Some(144));

    // tests/fault_matrix.rs: hyaline's stalled enter and leave (two
    // handles plus the adopter slack), PEBR's retire volume per handle.
    assert_eq!(hyaline::Domain::leak_new().garbage_bound(3), Some(768));
    assert_eq!(pebr::Collector::leak_new().garbage_bound(1), Some(1280));
}

//! The store's memory at fleet scale, counted rather than sampled.
//!
//! `ObjectStore::footprint` adds up the capacity of every table the store
//! allocates, from `size_of` and capacities alone, so one population
//! always gives the same numbers on every host. The first test runs the
//! 10 000-client population and pins each table and the store's bytes per
//! client exactly: a row that grows a field, a table that doubles past its
//! reservation or a hash kept a second time moves a number here, not an
//! RSS reading lost in the allocator's noise. The second, ignored because
//! it needs a release build and about a gigabyte, holds the store to a
//! per-client cost that does not rise from 100 000 clients to 1 000 000
//! and stays under an absolute ceiling.

use cloudsim_services::scale::{run_population, ScaleSpec};
use cloudsim_storage::{ObjectStore, StoreFootprint};

/// The store's footprint after the default population of `clients`.
fn footprint_of(clients: usize) -> StoreFootprint {
    let store = ObjectStore::new();
    let run = run_population(&ScaleSpec::new(clients), store.clone());
    assert_eq!(run.commits, 2 * clients as u64);
    let footprint = store.footprint();
    println!(
        "{clients} clients: {footprint:?}: {} B per client",
        footprint.total() / clients as u64
    );
    footprint
}

#[test]
fn a_ten_thousand_client_run_pins_the_stores_footprint() {
    let footprint = footprint_of(10_000);
    // One 64-byte record per client.
    assert_eq!(footprint.user_records, 640_000);
    // Eight 16-byte held rows and eight 24-byte manifest rows per client;
    // every file is one chunk, so no id list and no list table.
    assert_eq!(footprint.held_rows, 1_280_000);
    assert_eq!(footprint.file_rows, 1_920_000);
    // 40 004 chunks (four private per client, four in the shared pool) at
    // 44 bytes, reserved exactly, no payload side table, and 2^17
    // four-byte slots.
    assert_eq!(footprint.chunk_entries, 1_760_176);
    assert_eq!(footprint.chunk_index, 524_288);
    // A user name is its 12 bytes of text and an 8-byte end, reserved
    // exactly, and 2^15 four-byte slots index the 10 000; the eight paths
    // add 384 bytes.
    assert_eq!(footprint.names, 331_456);
    assert_eq!(footprint.total() / 10_000, 645);
}

#[test]
#[ignore = "a release-build check of about a gigabyte; the nightly job runs it"]
fn a_million_clients_cost_the_store_no_more_per_client_than_a_hundred_thousand() {
    let per_client = |clients: usize| footprint_of(clients).total() as f64 / clients as f64;
    let (at_100k, at_1m) = (per_client(100_000), per_client(1_000_000));
    assert!(at_1m <= at_100k, "{at_1m:.1} B per client at 1 M, {at_100k:.1} B at 100 k");
    // Rows at their data's width: 645 B at 10 k, and falling from there.
    assert!(at_1m <= 660.0, "{at_1m:.1} B per client at 1 M, past the 660 B ceiling");
}

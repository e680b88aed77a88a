//! The store's memory at fleet scale, counted rather than sampled.
//!
//! `ObjectStore::footprint` adds up the capacity of every table the store
//! allocates, from `size_of` and capacities alone, so one population
//! always gives the same numbers on every host. This test runs the
//! 10 000-client population and pins each table and the store's bytes per
//! client exactly: a row that grows a field, a table that doubles past its
//! reservation or a hash kept a second time moves a number here, not an
//! RSS reading lost in the allocator's noise.

use cloudsim_services::scale::{run_scale, ScaleSpec};
use cloudsim_storage::ObjectStore;

#[test]
fn a_ten_thousand_client_run_pins_the_stores_footprint() {
    let store = ObjectStore::new();
    let run = run_scale(&ScaleSpec::new(10_000), store.clone(), 1);
    assert_eq!(run.commits, 20_000);
    let footprint = store.footprint();
    println!("{footprint:?}: {} B per client", footprint.total() / 10_000);
    // One 64-byte record per client.
    assert_eq!(footprint.user_records, 640_000);
    // Eight 32-byte held rows and eight 40-byte manifest rows per client.
    assert_eq!(footprint.held_rows, 2_560_000);
    assert_eq!(footprint.file_rows, 3_200_000);
    // 40 004 chunks (four private per client, four in the shared pool) at
    // 72 bytes, reserved exactly, and 2^17 four-byte slots.
    assert_eq!(footprint.chunk_entries, 2_880_288);
    assert_eq!(footprint.chunk_index, 524_288);
    // A user name is a 12-byte `Arc<str>`, a list slot and a map bucket;
    // the eight paths add little.
    assert_eq!(footprint.names, 850_420);
    assert_eq!(footprint.total() / 10_000, 1_065);
}

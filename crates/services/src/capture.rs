//! Versioned fleet-run captures and timing-faithful replay.
//!
//! The paper's methodology is *capture first, analyse later*: every claim is
//! derived from recorded traffic, and the same recording can be interrogated
//! against different questions. This module gives the fleet-scale runner the
//! same property. [`render_capture`] lowers a [`ScaleSpec`] into a compact,
//! versioned JSONL recording — one header line describing the population,
//! then one line per commit event `(timestamp, client, op, bytes, content
//! seeds)` in event-heap order. [`replay`] hands a capture to the same
//! commit runner as the live run ([`crate::scale`]) — only the source the
//! runner resolves its events, seeds and links from differs — so:
//!
//! * **same-mix replay is bit-identical**: the capture stores exact
//!   microsecond instants and the exact content seeds, the replay rebuilds
//!   the same store keyspace and the same analytic timeline, and every
//!   derived metric reproduces to the bit — a CI leg `cmp`s the dumps;
//! * **cross-mix replay is the paper's A/B comparison**: the same recorded
//!   workload re-driven against a different access-link preset
//!   ([`ReplayMix::Link`]) or a different service's transfer behaviour
//!   ([`ReplayMix::Profile`] — a non-bundling service pays one access round
//!   trip per file instead of one per commit, the Fig. 3 story), isolating
//!   the remapped factor while holding the workload fixed.
//!
//! Everything is plain text with integer-only fields, so captures diff
//! cleanly and survive version control. The parser is hand-rolled over the
//! line grammar (the vendored `serde_json` is a serialiser only) and
//! rejects unknown format names and versions up front; the header/event
//! consistency checks live in [`FleetCapture::validate`], which the parser
//! and the commit runner both call.

use crate::engine::{FleetEvent, Phase};
use crate::partition::ClientSet;
use crate::profile::ServiceProfile;
use crate::scale::{drive_plain, intern_paths, Commits, ScaleRun, ScaleSpec, Source};
use cloudsim_net::AccessLink;
use cloudsim_storage::{GcPolicy, ObjectStore};
use cloudsim_trace::{SimDuration, SimTime};

/// The capture format's stable name, written into every header line.
pub const CAPTURE_FORMAT: &str = "cloudsim-fleet-capture";

/// The capture format version this build reads and writes.
pub const CAPTURE_VERSION: u64 = 1;

/// One recorded commit event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureEvent {
    /// The seeded virtual instant the commit was issued at.
    pub at: SimTime,
    /// Index of the issuing client.
    pub client: usize,
    /// The client's commit round.
    pub round: usize,
    /// Plaintext bytes the commit carries.
    pub bytes: u64,
    /// Per-file content seeds — replay commits the exact same hashes, so
    /// population-scale dedup reproduces too.
    pub content_seeds: Vec<u64>,
}

/// A parsed capture: the population header plus every event.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCapture {
    /// Clients in the recorded population (or in this slice of it).
    pub clients: usize,
    /// Global index of this capture's first client. `0` for a whole-run
    /// capture; a slice produced by [`slice_capture`] covers global clients
    /// `[client_base, client_base + clients)`. Events always carry global
    /// indices, so a slice replays the exact same store keyspace and link
    /// assignment as the clients' share of the unsliced run.
    pub client_base: usize,
    /// Commits each client performed.
    pub commits_per_client: usize,
    /// Files per commit.
    pub files_per_commit: usize,
    /// Plaintext size of each file in bytes.
    pub file_size: u64,
    /// Leading files of each commit drawn from the shared pool.
    pub shared_files_per_commit: usize,
    /// The virtual horizon of the recorded run.
    pub horizon: SimDuration,
    /// Access-link preset names, round-robin across clients.
    pub link_names: Vec<String>,
    /// The recorded run's master seed (provenance only — replay never
    /// redraws anything from it).
    pub seed: u64,
    /// Every commit event, in event-heap order.
    pub events: Vec<CaptureEvent>,
}

/// What a replay substitutes for the captured mix.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayMix {
    /// Replay against the captured link mix and transfer behaviour —
    /// reproduces the original run bit for bit.
    Original,
    /// Re-drive the captured workload with every client on one access-link
    /// preset.
    Link(AccessLink),
    /// Re-drive the captured workload with another service's transfer
    /// behaviour: a non-bundling service opens a connection per file, so a
    /// commit pays `files_per_commit` access round trips instead of one.
    Profile(ServiceProfile),
}

impl FleetCapture {
    /// Checks every event against the header, so a truncated, hand-edited
    /// or hand-built capture fails loudly instead of replaying garbage (or
    /// indexing out of bounds inside a worker thread). The one copy of the
    /// checks: [`parse_capture`] runs it on what it read, and the commit
    /// runner runs it on whatever it is handed — all fields are `pub`, so
    /// a capture need not have come through the parser.
    pub fn validate(&self) -> Result<(), String> {
        let (clients, base, commits_per_client) =
            (self.clients, self.client_base, self.commits_per_client);
        let sizes = (
            (self.files_per_commit as u64).checked_mul(self.file_size),
            clients.checked_mul(commits_per_client),
            base.checked_add(clients),
        );
        let (Some(expected_bytes), Some(expected_events), Some(end)) = sizes else {
            return Err("capture header describes a population too large to index".into());
        };
        if expected_bytes == 0 || expected_events == 0 {
            return Err("capture header describes an empty population".into());
        }
        if self.link_names.is_empty() {
            return Err("capture header lists no access links".into());
        }
        for event in &self.events {
            if !(base..end).contains(&event.client) {
                return Err(format!(
                    "event client {} outside the header's [{base}, {end}) range",
                    event.client
                ));
            }
            if event.round >= commits_per_client {
                return Err(format!(
                    "event round {} outside the {commits_per_client}-commit header",
                    event.round
                ));
            }
            if event.bytes != expected_bytes {
                return Err(format!(
                    "event carries {} bytes but the header's commit is {expected_bytes} bytes",
                    event.bytes
                ));
            }
            if event.content_seeds.len() != self.files_per_commit {
                return Err(format!(
                    "event carries {} content seeds for a {}-file commit",
                    event.content_seeds.len(),
                    self.files_per_commit
                ));
            }
        }
        if self.events.len() != expected_events {
            return Err(format!(
                "capture holds {} events but the header promises {expected_events}",
                self.events.len()
            ));
        }
        Ok(())
    }

    /// Resolves the capture's commits for the driver under `mix`, with
    /// their events (global client ids, recorded order): the recorded
    /// seeds and shape, the mix's links and round trips, paths interned
    /// into `store`. Events keep their global client ids, so a slice
    /// commits into the same store keyspace and through the same
    /// round-robin link assignment as its clients' share of the unsliced
    /// run.
    pub(crate) fn commits(
        &self,
        mix: &ReplayMix,
        store: &ObjectStore,
    ) -> Result<(Commits<'_>, Vec<FleetEvent>), String> {
        self.validate()?;
        let links: Vec<AccessLink> = match mix {
            ReplayMix::Link(link) => vec![*link],
            ReplayMix::Original | ReplayMix::Profile(_) => self
                .link_names
                .iter()
                .map(|name| {
                    AccessLink::by_name(name)
                        .ok_or_else(|| format!("capture references unknown link preset \"{name}\""))
                })
                .collect::<Result<_, _>>()?,
        };
        let rtts_per_commit = match mix {
            ReplayMix::Profile(profile) if !profile.bundles() => self.files_per_commit as u64,
            _ => 1,
        };

        // Seeds keyed by (client, round), so an event finds its commit's
        // seeds whatever order the capture lists its events in.
        let (base, commits_per_client) = (self.client_base, self.commits_per_client);
        let slot_of = move |client, round| (client - base) * commits_per_client + round;
        let mut table: Vec<&[u64]> = vec![&[]; self.events.len()];
        let mut events = Vec::with_capacity(self.events.len());
        for ev in &self.events {
            // A validated capture fills every slot exactly once unless
            // some commit was recorded twice.
            let slot = &mut table[slot_of(ev.client, ev.round)];
            if !slot.is_empty() {
                return Err(format!(
                    "capture records client {}'s commit {} more than once",
                    ev.client, ev.round
                ));
            }
            *slot = &ev.content_seeds;
            events.push(FleetEvent {
                at: ev.at,
                phase: Phase::Sync,
                client: ev.client,
                round: ev.round,
            });
        }
        let commits = Commits {
            owned: ClientSet::Range { start: base, end: base + self.clients },
            files_per_commit: self.files_per_commit,
            file_size: self.file_size,
            rtts_per_commit,
            links,
            paths: intern_paths(
                store,
                commits_per_client,
                self.files_per_commit,
                self.shared_files_per_commit,
            )?,
            seeds: Box::new(move |ev, f| table[slot_of(ev.client, ev.round)][f]),
        };
        Ok((commits, events))
    }
}

/// Lowers a [`ScaleSpec`] into its in-memory capture: the header fields
/// plus one [`CaptureEvent`] per commit in event-heap order. Pure function
/// of the spec — the recording *is* the run's input, bit for bit.
pub fn capture_of_spec(spec: &ScaleSpec) -> FleetCapture {
    let batch_bytes = spec.files_per_commit as u64 * spec.file_size;
    let shared_files = spec.shared_files_per_commit();
    let mut events = Vec::with_capacity(spec.clients * spec.commits_per_client);
    let mut heap = spec.events();
    while let Some(ev) = heap.pop() {
        events.push(CaptureEvent {
            at: ev.at,
            client: ev.client,
            round: ev.round,
            bytes: batch_bytes,
            content_seeds: (0..spec.files_per_commit)
                .map(|f| spec.content_seed(shared_files, ev.client, ev.round, f))
                .collect(),
        });
    }
    FleetCapture {
        clients: spec.clients,
        client_base: 0,
        commits_per_client: spec.commits_per_client,
        files_per_commit: spec.files_per_commit,
        file_size: spec.file_size,
        shared_files_per_commit: shared_files,
        horizon: spec.horizon,
        link_names: spec.links.iter().map(|l| l.name.to_owned()).collect(),
        seed: spec.seed,
        events,
    }
}

/// Renders a capture (whole-run or slice) into the versioned JSONL text.
/// The `client_base` header field is written only when non-zero, so a
/// whole-run capture renders byte-identically to captures written by
/// builds that predate slicing.
pub fn render_fleet_capture(capture: &FleetCapture) -> String {
    let mut out = String::new();
    let links: Vec<String> = capture.link_names.iter().map(|l| format!("\"{l}\"")).collect();
    let base_field = if capture.client_base == 0 {
        String::new()
    } else {
        format!("\"client_base\":{},", capture.client_base)
    };
    out.push_str(&format!(
        "{{\"format\":\"{}\",\"version\":{},\"clients\":{},\"commits_per_client\":{},\
         \"files_per_commit\":{},\"file_size\":{},\"shared_files_per_commit\":{},{}\
         \"horizon_us\":{},\"seed\":{},\"links\":[{}]}}\n",
        CAPTURE_FORMAT,
        CAPTURE_VERSION,
        capture.clients,
        capture.commits_per_client,
        capture.files_per_commit,
        capture.file_size,
        capture.shared_files_per_commit,
        base_field,
        capture.horizon.as_micros(),
        capture.seed,
        links.join(",")
    ));

    for ev in &capture.events {
        let seeds: Vec<String> = ev.content_seeds.iter().map(u64::to_string).collect();
        out.push_str(&format!(
            "{{\"t_us\":{},\"client\":{},\"op\":\"sync\",\"round\":{},\"bytes\":{},\"content\":[{}]}}\n",
            ev.at.as_micros(),
            ev.client,
            ev.round,
            ev.bytes,
            seeds.join(",")
        ));
    }
    out
}

/// Renders the capture of the fleet-scale run `spec` describes: pure
/// function of the spec, so capturing never requires running the fleet
/// first — the recording *is* the run's input, bit for bit.
pub fn render_capture(spec: &ScaleSpec) -> String {
    render_fleet_capture(&capture_of_spec(spec))
}

/// Splits a capture into per-worker slices along `ranges` — capture-local,
/// half-open, contiguous client ranges that together cover `[0, clients)`.
/// Each slice is itself a valid capture (its `client_base` marks where it
/// sits in the global population, its events keep their global client
/// indices), so independent replays of the slices recombine bit-identically
/// to the unsliced run. [`merge_slices`] is the inverse.
pub fn slice_capture(
    capture: &FleetCapture,
    ranges: &[(usize, usize)],
) -> Result<Vec<FleetCapture>, String> {
    capture.validate()?;
    if ranges.is_empty() {
        return Err("slice_capture needs at least one range".into());
    }
    let mut expected_start = 0usize;
    for &(start, end) in ranges {
        if start != expected_start {
            return Err(format!(
                "slice ranges must be sorted, contiguous and cover [0, {}): \
                 expected a range starting at {expected_start}, got [{start}, {end})",
                capture.clients
            ));
        }
        if start >= end {
            return Err(format!("slice range [{start}, {end}) is empty"));
        }
        expected_start = end;
    }
    if expected_start != capture.clients {
        return Err(format!(
            "slice ranges cover [0, {expected_start}) but the capture holds {} clients",
            capture.clients
        ));
    }

    let mut slices: Vec<FleetCapture> = ranges
        .iter()
        .map(|&(start, end)| FleetCapture {
            clients: end - start,
            client_base: capture.client_base + start,
            commits_per_client: capture.commits_per_client,
            files_per_commit: capture.files_per_commit,
            file_size: capture.file_size,
            shared_files_per_commit: capture.shared_files_per_commit,
            horizon: capture.horizon,
            link_names: capture.link_names.clone(),
            seed: capture.seed,
            events: Vec::with_capacity((end - start) * capture.commits_per_client),
        })
        .collect();
    for ev in &capture.events {
        let local = ev.client - capture.client_base;
        let owner = ranges.partition_point(|&(_, end)| end <= local);
        slices[owner].events.push(ev.clone());
    }
    Ok(slices)
}

/// Recombines capture slices into the capture they were cut from: headers
/// must agree, the client ranges must tile a contiguous span, and the
/// per-slice event streams (each a subsequence of the original heap order)
/// are k-way merged back by `(timestamp, client, round)`. Order-independent
/// — any permutation of `slices` yields the identical capture.
pub fn merge_slices(slices: &[FleetCapture]) -> Result<FleetCapture, String> {
    if slices.is_empty() {
        return Err("merge_slices needs at least one slice".into());
    }
    let mut order: Vec<&FleetCapture> = slices.iter().collect();
    order.sort_by_key(|s| s.client_base);
    let first = order[0];
    let mut next_base = first.client_base;
    for slice in &order {
        let headers_agree = slice.commits_per_client == first.commits_per_client
            && slice.files_per_commit == first.files_per_commit
            && slice.file_size == first.file_size
            && slice.shared_files_per_commit == first.shared_files_per_commit
            && slice.horizon == first.horizon
            && slice.link_names == first.link_names
            && slice.seed == first.seed;
        if !headers_agree {
            return Err(format!(
                "slice at client_base {} disagrees with the slice at {} on its header",
                slice.client_base, first.client_base
            ));
        }
        if slice.client_base != next_base {
            return Err(format!(
                "slices do not tile: expected a slice at client_base {next_base}, got {}",
                slice.client_base
            ));
        }
        next_base += slice.clients;
    }

    // Every slice's stream is already in that order, so the stable sort
    // sees one sorted run per slice and merges them.
    let mut events: Vec<CaptureEvent> =
        order.iter().flat_map(|slice| slice.events.iter().cloned()).collect();
    events.sort_by_key(|ev| (ev.at, ev.client, ev.round));

    Ok(FleetCapture {
        clients: next_base - first.client_base,
        client_base: first.client_base,
        commits_per_client: first.commits_per_client,
        files_per_commit: first.files_per_commit,
        file_size: first.file_size,
        shared_files_per_commit: first.shared_files_per_commit,
        horizon: first.horizon,
        link_names: first.link_names.clone(),
        seed: first.seed,
        events,
    })
}

/// Extracts the raw text of `"key":` in `line`, up to the next top-level
/// `,` or `}`.
fn raw_field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let marker = format!("\"{key}\":");
    let start = line
        .find(&marker)
        .ok_or_else(|| format!("capture line is missing field \"{key}\": {line}"))?
        + marker.len();
    let rest = &line[start..];
    let mut depth = 0usize;
    let mut in_string = false;
    for (i, c) in rest.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| format!("stray ']' in field \"{key}\": {line}"))?;
            }
            ',' | '}' if !in_string && depth == 0 => return Ok(rest[..i].trim()),
            _ => {}
        }
    }
    Err(format!("unterminated field \"{key}\": {line}"))
}

fn u64_field(line: &str, key: &str) -> Result<u64, String> {
    raw_field(line, key)?
        .parse::<u64>()
        .map_err(|e| format!("field \"{key}\" is not an integer ({e}): {line}"))
}

fn usize_field(line: &str, key: &str) -> Result<usize, String> {
    Ok(u64_field(line, key)? as usize)
}

fn str_field(line: &str, key: &str) -> Result<String, String> {
    let raw = raw_field(line, key)?;
    raw.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_owned)
        .ok_or_else(|| format!("field \"{key}\" is not a string: {line}"))
}

fn array_field(line: &str, key: &str) -> Result<Vec<String>, String> {
    let raw = raw_field(line, key)?;
    let inner = raw
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("field \"{key}\" is not an array: {line}"))?
        .trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    Ok(inner.split(',').map(|s| s.trim().to_owned()).collect())
}

fn u64_array_field(line: &str, key: &str) -> Result<Vec<u64>, String> {
    array_field(line, key)?
        .into_iter()
        .map(|s| {
            s.parse::<u64>()
                .map_err(|e| format!("field \"{key}\" holds a non-integer element ({e})"))
        })
        .collect()
}

/// Parses a capture rendered by [`render_capture`] (or by a newer build
/// writing the same version). Rejects unknown formats and versions, and
/// validates every event against the header so a truncated or hand-edited
/// capture fails loudly instead of replaying garbage.
pub fn parse_capture(text: &str) -> Result<FleetCapture, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("capture is empty")?;

    let format = str_field(header, "format")?;
    if format != CAPTURE_FORMAT {
        return Err(format!("unknown capture format \"{format}\" (expected \"{CAPTURE_FORMAT}\")"));
    }
    let version = u64_field(header, "version")?;
    if version != CAPTURE_VERSION {
        return Err(format!(
            "unsupported capture version {version} (this build reads version {CAPTURE_VERSION})"
        ));
    }

    let capture_header = (
        usize_field(header, "clients")?,
        usize_field(header, "commits_per_client")?,
        usize_field(header, "files_per_commit")?,
        u64_field(header, "file_size")?,
        usize_field(header, "shared_files_per_commit")?,
        u64_field(header, "horizon_us")?,
        u64_field(header, "seed")?,
        array_field(header, "links")?,
    );
    let (clients, commits_per_client, files_per_commit, file_size, shared, horizon_us, seed, links) =
        capture_header;
    // `client_base` was introduced alongside capture slicing; whole-run
    // captures omit it, so a missing field means base zero.
    let client_base =
        if header.contains("\"client_base\":") { usize_field(header, "client_base")? } else { 0 };
    let link_names: Result<Vec<String>, String> = links
        .into_iter()
        .map(|quoted| {
            quoted
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .map(str::to_owned)
                .ok_or_else(|| format!("link entry {quoted} is not a string"))
        })
        .collect();
    let link_names = link_names?;

    let mut events = Vec::new();
    for line in lines {
        let op = str_field(line, "op")?;
        if op != "sync" {
            return Err(format!(
                "capture version {CAPTURE_VERSION} only records \"sync\" events, got \"{op}\""
            ));
        }
        events.push(CaptureEvent {
            at: SimTime::from_micros(u64_field(line, "t_us")?),
            client: usize_field(line, "client")?,
            round: usize_field(line, "round")?,
            bytes: u64_field(line, "bytes")?,
            content_seeds: u64_array_field(line, "content")?,
        });
    }

    let capture = FleetCapture {
        clients,
        client_base,
        commits_per_client,
        files_per_commit,
        file_size,
        shared_files_per_commit: shared,
        horizon: SimDuration::from_micros(horizon_us),
        link_names,
        seed,
        events,
    };
    capture.validate()?;
    Ok(capture)
}

/// Re-drives a capture through the commit runner ([`crate::scale`])
/// against a fresh mark-sweep store. [`ReplayMix::Original`] reproduces the
/// recorded run bit for bit; the other mixes substitute one factor and hold
/// the workload fixed. A capture that fails [`FleetCapture::validate`] is
/// an `Err`, parsed or hand-built. `_workers` is ignored, as in
/// [`crate::scale::run_scale`].
pub fn replay(
    capture: &FleetCapture,
    mix: &ReplayMix,
    _workers: usize,
) -> Result<ScaleRun, String> {
    let store = ObjectStore::with_policy(GcPolicy::MarkSweep);
    let driven = drive_plain(Source::Capture(capture, mix), &store)?;
    Ok(driven.into_run(store))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::{run_wide, scale_user};

    fn small_spec() -> ScaleSpec {
        ScaleSpec::new(48).with_seed(0xCAB)
    }

    /// [`replay`] the way [`run_wide`] runs a spec.
    fn replay_wide(capture: &FleetCapture, mix: &ReplayMix) -> Result<ScaleRun, String> {
        replay(capture, mix, 1)
    }

    #[test]
    fn capture_roundtrips_through_the_parser() {
        let spec = small_spec();
        let text = render_capture(&spec);
        let capture = parse_capture(&text).expect("own capture must parse");
        assert_eq!(capture.clients, spec.clients);
        assert_eq!(capture.commits_per_client, spec.commits_per_client);
        assert_eq!(capture.file_size, spec.file_size);
        assert_eq!(capture.shared_files_per_commit, spec.shared_files_per_commit());
        assert_eq!(capture.horizon, spec.horizon);
        assert_eq!(capture.seed, spec.seed);
        assert_eq!(capture.link_names, vec!["campus", "fiber", "adsl", "3g"]);
        assert_eq!(capture.events.len(), spec.clients * spec.commits_per_client);
        // Events are recorded in heap order: timestamps never decrease.
        for pair in capture.events.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
    }

    #[test]
    fn same_mix_replay_is_bit_identical_to_the_original_run() {
        let spec = small_spec();
        let original = run_wide(&spec);
        let capture = parse_capture(&render_capture(&spec)).unwrap();
        let replayed = replay_wide(&capture, &ReplayMix::Original).unwrap();

        assert_eq!(replayed.clients, original.clients);
        assert_eq!(replayed.commits, original.commits);
        assert_eq!(replayed.files, original.files);
        assert_eq!(replayed.logical_bytes, original.logical_bytes);
        assert_eq!(replayed.intervals, original.intervals);
        assert_eq!(replayed.aggregate(), original.aggregate());
        assert_eq!(replayed.dedup_ratio().to_bits(), original.dedup_ratio().to_bits());
        assert_eq!(replayed.commits_per_vsec().to_bits(), original.commits_per_vsec().to_bits());
        assert_eq!(replayed.load_curve(12), original.load_curve(12));
        for i in [0usize, 13, 47] {
            let user = scale_user(i);
            assert_eq!(replayed.store.stats(&user), original.store.stats(&user));
            assert_eq!(replayed.store.list_files(&user), original.store.list_files(&user));
        }
    }

    #[test]
    fn link_remap_shifts_timing_but_preserves_the_workload() {
        let spec = small_spec();
        let original = run_wide(&spec);
        let capture = parse_capture(&render_capture(&spec)).unwrap();
        let remapped = replay_wide(&capture, &ReplayMix::Link(AccessLink::adsl())).unwrap();

        // The workload is identical...
        assert_eq!(remapped.commits, original.commits);
        assert_eq!(remapped.files, original.files);
        assert_eq!(remapped.logical_bytes, original.logical_bytes);
        assert_eq!(remapped.aggregate(), original.aggregate());
        // ...but every client now uploads through ADSL, so the mixed-link
        // timeline is gone.
        assert_ne!(remapped.intervals, original.intervals);
        let all_adsl = replay_wide(&capture, &ReplayMix::Link(AccessLink::adsl())).unwrap();
        assert_eq!(all_adsl.intervals, remapped.intervals, "replay must be deterministic");
    }

    #[test]
    fn profile_remap_charges_per_file_round_trips() {
        let spec = small_spec();
        let capture = parse_capture(&render_capture(&spec)).unwrap();
        let bundled = replay_wide(&capture, &ReplayMix::Original).unwrap();
        let per_file = ServiceProfile::all()
            .into_iter()
            .find(|p| !p.bundles())
            .expect("some profile must not bundle");
        let unbundled = replay_wide(&capture, &ReplayMix::Profile(per_file)).unwrap();

        assert_eq!(unbundled.aggregate(), bundled.aggregate());
        // Every commit pays files_per_commit RTTs instead of one, so no
        // transfer finishes earlier and the non-campus ones finish later.
        let longer = bundled
            .intervals
            .iter()
            .zip(&unbundled.intervals)
            .filter(|((_, e0), (_, e1))| e1 > e0)
            .count();
        assert!(longer > 0, "per-file round trips must slow some transfers");
        // A bundling profile replays exactly like the original mix.
        let still_bundled = ServiceProfile::all().into_iter().find(|p| p.bundles()).unwrap();
        let same = replay_wide(&capture, &ReplayMix::Profile(still_bundled)).unwrap();
        assert_eq!(same.intervals, bundled.intervals);
    }

    #[test]
    fn parser_rejects_malformed_captures() {
        let spec = ScaleSpec::new(2).with_seed(1);
        let good = render_capture(&spec);

        assert!(parse_capture("").is_err());
        let bad_format = good.replacen(CAPTURE_FORMAT, "pcap", 1);
        assert!(parse_capture(&bad_format).unwrap_err().contains("unknown capture format"));
        let bad_version = good.replacen("\"version\":1", "\"version\":99", 1);
        assert!(parse_capture(&bad_version).unwrap_err().contains("unsupported capture version"));
        let truncated: String = good.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(parse_capture(&truncated).unwrap_err().contains("events"));
        let bad_bytes = good.replacen("\"bytes\":262144", "\"bytes\":1", 1);
        assert!(parse_capture(&bad_bytes).unwrap_err().contains("bytes"));

        // Broken bracket, quote and brace structure on an event line is an
        // error naming the line — never a panic, never a wrapped depth.
        let event = good.lines().nth(1).expect("an event line");
        let broken = |line: String| parse_capture(&good.replacen(event, &line, 1)).unwrap_err();
        let stray = event.replacen("\"t_us\":", "\"t_us\":]", 1);
        let err = broken(stray.clone());
        assert!(err.contains("stray ']'") && err.contains(&stray), "got: {err}");
        let unbalanced = event.replacen("\"sync\"", "\"sync", 1);
        assert!(broken(unbalanced.clone()).contains(&unbalanced));
        let unclosed = event.trim_end_matches('}').to_string();
        let err = broken(unclosed.clone());
        assert!(err.contains("unterminated field") && err.contains(&unclosed), "got: {err}");
    }

    #[test]
    fn hostile_hand_built_captures_are_errors_on_every_path() {
        use crate::partition::{run_partition, PartitionSpec, PartitionWorkload};

        // All fields are `pub`, so a capture need not have come through the
        // parser. One hostile capture per check; before `validate` each of
        // the first four panicked inside a scoped worker thread.
        let good = capture_of_spec(&ScaleSpec::new(3).with_seed(9));
        type Tamper = fn(&mut FleetCapture);
        let hostile: [(&str, Tamper); 9] = [
            ("no access links", |c| c.link_names.clear()),
            ("outside the header's [2, 5) range", |c| c.client_base = 2),
            ("outside the header's [0, 3) range", |c| c.events[1].client = 3),
            ("round 2 outside the 2-commit header", |c| c.events[0].round = 2),
            ("content seeds for a 4-file commit", |c| c.events[2].content_seeds.truncate(1)),
            ("bytes but the header's commit is", |c| c.events[0].bytes += 1),
            ("events but the header promises 6", |c| c.events.truncate(5)),
            ("empty population", |c| c.files_per_commit = 0),
            ("too large to index", |c| c.client_base = usize::MAX),
        ];
        for (expected, tamper) in hostile {
            let mut capture = good.clone();
            tamper(&mut capture);
            let err = capture.validate().expect_err(expected);
            assert!(err.contains(expected), "expected \"{expected}\", got: {err}");
            // The API paths return the very error the file path does.
            assert_eq!(parse_capture(&render_fleet_capture(&capture)).unwrap_err(), err);
            assert_eq!(replay(&capture, &ReplayMix::Original, 2).unwrap_err(), err);
            assert_eq!(slice_capture(&capture, &[(0, 3)]).unwrap_err(), err);
            let part = PartitionSpec {
                index: 0,
                clients: ClientSet::Range {
                    start: capture.client_base,
                    end: capture.client_base.saturating_add(capture.clients),
                },
                workload: PartitionWorkload::Slice(capture),
            };
            let store = ObjectStore::with_policy(GcPolicy::MarkSweep);
            assert_eq!(run_partition(&part, &store, 2).unwrap_err(), format!("partition 0: {err}"));
        }

        // A commit recorded twice keeps every per-event check happy (the
        // count is intact) but would leave another commit without seeds.
        let mut twice = good.clone();
        twice.events[1] = twice.events[0].clone();
        assert!(twice.validate().is_ok());
        let err = replay(&twice, &ReplayMix::Original, 2).unwrap_err();
        assert!(err.contains("more than once"), "got: {err}");
    }

    #[test]
    fn capture_of_spec_renders_exactly_like_render_capture() {
        let spec = small_spec();
        let capture = capture_of_spec(&spec);
        assert_eq!(capture.client_base, 0);
        assert_eq!(render_fleet_capture(&capture), render_capture(&spec));
        assert_eq!(parse_capture(&render_capture(&spec)).unwrap(), capture);
    }

    #[test]
    fn slices_roundtrip_through_text_and_merge_back() {
        let spec = small_spec();
        let capture = capture_of_spec(&spec);
        let ranges = [(0usize, 13usize), (13, 30), (30, 48)];
        let slices = slice_capture(&capture, &ranges).expect("valid split");
        assert_eq!(slices.len(), 3);
        for (slice, &(start, end)) in slices.iter().zip(&ranges) {
            assert_eq!(slice.client_base, start);
            assert_eq!(slice.clients, end - start);
            assert_eq!(slice.events.len(), (end - start) * capture.commits_per_client);
            // A slice is itself a valid capture: it survives the text
            // round trip, client_base included.
            let reparsed = parse_capture(&render_fleet_capture(slice)).expect("slice parses");
            assert_eq!(&reparsed, slice);
            // Slice events keep global client ids within the slice range.
            for ev in &slice.events {
                assert!(ev.client >= start && ev.client < end);
            }
        }
        // Merging in any order reconstructs the original capture exactly.
        let mut shuffled: Vec<FleetCapture> = slices.clone();
        shuffled.reverse();
        assert_eq!(merge_slices(&shuffled).expect("slices tile"), capture);
        assert_eq!(merge_slices(&slices).expect("slices tile"), capture);
    }

    #[test]
    fn slice_replay_matches_the_clients_share_of_the_unsliced_run() {
        let spec = small_spec();
        let capture = capture_of_spec(&spec);
        let whole = replay_wide(&capture, &ReplayMix::Original).unwrap();
        let slices = slice_capture(&capture, &[(0, 20), (20, 48)]).unwrap();
        let tail = replay_wide(&slices[1], &ReplayMix::Original).unwrap();
        assert_eq!(tail.clients, 28);
        // The slice commits under the same global user names, so its store
        // contents are exactly those clients' share of the whole run.
        for i in [20usize, 33, 47] {
            let user = scale_user(i);
            assert_eq!(tail.store.stats(&user), whole.store.stats(&user));
            assert_eq!(tail.store.list_files(&user), whole.store.list_files(&user));
        }
    }

    #[test]
    fn slice_and_merge_reject_bad_splits() {
        let capture = capture_of_spec(&ScaleSpec::new(6).with_seed(3));
        assert!(slice_capture(&capture, &[]).is_err());
        assert!(slice_capture(&capture, &[(0, 3)]).unwrap_err().contains("cover"));
        assert!(slice_capture(&capture, &[(0, 3), (4, 6)]).is_err(), "gapped ranges");
        assert!(slice_capture(&capture, &[(0, 3), (2, 6)]).is_err(), "overlapping ranges");
        assert!(slice_capture(&capture, &[(0, 0), (0, 6)]).is_err(), "empty range");

        let slices = slice_capture(&capture, &[(0, 2), (2, 4), (4, 6)]).unwrap();
        assert!(merge_slices(&[]).is_err());
        // A contiguous prefix merges fine — into a narrower capture.
        assert_eq!(merge_slices(&slices[..2]).unwrap().clients, 4);
        // Dropping the middle slice breaks the tiling.
        let gapped = vec![slices[0].clone(), slices[2].clone()];
        assert!(merge_slices(&gapped).unwrap_err().contains("tile"));
        // A header mismatch is rejected even when the ranges tile.
        let mut bad = slices.clone();
        bad[1].seed ^= 1;
        assert!(merge_slices(&bad).unwrap_err().contains("header"));
    }

    #[test]
    fn replay_rejects_unknown_link_presets() {
        let spec = ScaleSpec::new(2).with_seed(1);
        let text = render_capture(&spec).replacen("\"campus\"", "\"dialup\"", 1);
        let capture = parse_capture(&text).unwrap();
        let err = replay_wide(&capture, &ReplayMix::Original).unwrap_err();
        assert!(err.contains("dialup"));
    }
}

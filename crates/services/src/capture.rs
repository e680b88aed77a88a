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
//! cleanly and survive version control. The parser is hand-rolled (the
//! vendored `serde_json` is a serialiser only): one borrowed cursor reads
//! a line — header or event — as a flat JSON object in one pass, and
//! rejects unknown format names and versions up front; the header/event
//! consistency checks live in [`FleetCapture::validate`], which the parser
//! and the commit runner both call.

use crate::engine::{FleetEvent, Phase};
use crate::partition::ClientSet;
use crate::profile::ServiceProfile;
use crate::scale::{check_run_totals, drive, intern_paths, Commits, ScaleRun, ScaleSpec, Source};
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
        let (clients, base, commits_per_client, files) =
            (self.clients, self.client_base, self.commits_per_client, self.files_per_commit);
        check_run_totals(clients, commits_per_client, files, self.file_size).map_err(|e| {
            format!("capture header describes a population too large to index: {e}")
        })?;
        let Some(end) = base.checked_add(clients) else {
            return Err("capture header describes a population too large to index".into());
        };
        let (expected_bytes, expected_events) =
            (files as u64 * self.file_size, clients * commits_per_client);
        if expected_bytes == 0 || expected_events == 0 {
            return Err("capture header describes an empty population".into());
        }
        if self.link_names.is_empty() {
            return Err("capture header lists no access links".into());
        }
        if self.shared_files_per_commit > self.files_per_commit {
            return Err(format!(
                "capture header draws {} shared files per commit from a {}-file commit",
                self.shared_files_per_commit, self.files_per_commit
            ));
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
            shared_files: self.shared_files_per_commit,
            file_size: self.file_size,
            rtts_per_commit,
            links,
            paths: intern_paths(
                store,
                commits_per_client,
                self.files_per_commit,
                self.shared_files_per_commit,
            )?,
            seeds: Box::new(move |client, round, f| table[slot_of(client, round)][f]),
        };
        Ok((commits, events))
    }
}

/// Lowers a [`ScaleSpec`] into its in-memory capture: the header fields
/// plus one [`CaptureEvent`] per commit in event-heap order. Pure function
/// of the spec — the recording *is* the run's input, bit for bit.
pub fn capture_of_spec(spec: &ScaleSpec) -> FleetCapture {
    spec.validate();
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
        horizon: ScaleSpec::HORIZON,
        link_names: ScaleSpec::LINKS.iter().map(|l| l.name.to_owned()).collect(),
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

/// One borrowed cursor over one line of a capture: a flat JSON object
/// whose values are unsigned integers, strings and flat arrays of either.
/// Header and event lines go through the same code, in one pass, and
/// nothing is copied out of the line but what the caller keeps. Every
/// error ends in the line it is about.
///
/// The tokens are `{`, `}`, `[`, `]`, `,`, a key **with its colon**
/// (`"name":` — no whitespace inside), an integer (decimal digits only),
/// a string (`"`, then everything up to the next `"`: the format has no
/// escapes) and, in values this build does not read, a bare word. ASCII
/// whitespace may separate any two tokens.
struct Cursor<'a> {
    line: &'a str,
    at: usize,
}

impl<'a> Cursor<'a> {
    /// Walks the members of the object `line` holds, handing `member` the
    /// cursor at each value with the value's key; `member` must consume
    /// exactly the value ([`Cursor::skip_value`] for a key it does not
    /// know). Nothing but whitespace may surround the object.
    fn members(
        line: &'a str,
        mut member: impl FnMut(&mut Cursor<'a>, &'a str) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut cursor = Cursor { line, at: 0 };
        if !cursor.eat(b'{') {
            return Err(cursor.fail(format_args!("capture line is not a '{{…}}' object")));
        }
        if !cursor.eat(b'}') {
            loop {
                let key = cursor.key()?;
                cursor.skip_ws();
                member(&mut cursor, key)?;
                if cursor.eat(b',') {
                    continue;
                }
                if cursor.eat(b'}') {
                    break;
                }
                return Err(cursor.unexpected(key, "is not followed by ',' or '}'"));
            }
        }
        cursor.skip_ws();
        if cursor.at < line.len() {
            return Err(cursor.fail(format_args!("capture line continues after its closing '}}'")));
        }
        Ok(())
    }

    fn fail(&self, what: std::fmt::Arguments<'_>) -> String {
        format!("{what}: {}", self.line)
    }

    /// The error for a value of `key` that cannot start or go on here:
    /// the line ended, a bracket closed that never opened, or `complaint`.
    fn unexpected(&self, key: &str, complaint: &str) -> String {
        match self.peek() {
            None => self.fail(format_args!("unterminated field \"{key}\"")),
            Some(b']') => self.fail(format_args!("stray ']' in field \"{key}\"")),
            Some(_) => self.fail(format_args!("field \"{key}\" {complaint}")),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    /// Consumes `byte` when it is the next token.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let found = self.peek() == Some(byte);
        self.at += usize::from(found);
        found
    }

    /// The text between the `"` under the cursor and the next one, or
    /// `None` (cursor unmoved) when either is missing.
    fn quoted(&mut self) -> Option<&'a str> {
        if self.peek() != Some(b'"') {
            return None;
        }
        let rest = &self.line[self.at + 1..];
        let len = rest.bytes().position(|b| b == b'"')?;
        self.at += len + 2;
        Some(&rest[..len])
    }

    /// A key token, `"name":`.
    fn key(&mut self) -> Result<&'a str, String> {
        self.skip_ws();
        let key = self
            .quoted()
            .ok_or_else(|| self.fail(format_args!("capture line lacks a key where one is due")))?;
        if self.peek() != Some(b':') {
            return Err(self.fail(format_args!("key \"{key}\" is not directly followed by ':'")));
        }
        self.at += 1;
        Ok(key)
    }

    fn string(&mut self, key: &str) -> Result<&'a str, String> {
        match self.quoted() {
            Some(text) => Ok(text),
            None if self.peek() == Some(b'"') => {
                Err(self.fail(format_args!("unterminated field \"{key}\"")))
            }
            None => Err(self.unexpected(key, "is not a string")),
        }
    }

    /// Decimal digits, accumulated one by one with overflow checked.
    fn integer(&mut self, key: &str) -> Result<u64, String> {
        let start = self.at;
        let mut value = 0u64;
        while let Some(digit @ b'0'..=b'9') = self.peek() {
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(digit - b'0')))
                .ok_or_else(|| {
                    self.fail(format_args!("field \"{key}\" is not an integer (too large)"))
                })?;
            self.at += 1;
        }
        if self.at == start {
            return Err(self.unexpected(key, "is not an integer"));
        }
        Ok(value)
    }

    /// An integer into a slot that must still be empty.
    fn integer_into(&mut self, slot: &mut Option<u64>, key: &str) -> Result<(), String> {
        let value = self.integer(key)?;
        self.set(slot, value, key)
    }

    /// Fills `slot`; a key the line gives twice is an error, not a choice.
    fn set<T>(&self, slot: &mut Option<T>, value: T, key: &str) -> Result<(), String> {
        match slot.replace(value) {
            None => Ok(()),
            Some(_) => Err(self.fail(format_args!("field \"{key}\" appears twice"))),
        }
    }

    /// A flat array, `element` consuming each element.
    fn array(
        &mut self,
        key: &str,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if !self.eat(b'[') {
            return Err(self.unexpected(key, "is not an array"));
        }
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            self.skip_ws();
            element(self)?;
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(());
            }
            return Err(self.unexpected(key, "holds an element not followed by ',' or ']'"));
        }
    }

    /// Skips the value of a key this build does not read: a string, a bare
    /// word (a number of any kind, `true`, `null`, …) or a flat array of
    /// those. Nested objects and arrays are not part of the format.
    fn skip_value(&mut self, key: &str) -> Result<(), String> {
        if self.peek() == Some(b'[') {
            self.array(key, |cursor| cursor.skip_scalar(key))
        } else {
            self.skip_scalar(key)
        }
    }

    fn skip_scalar(&mut self, key: &str) -> Result<(), String> {
        if self.peek() == Some(b'"') {
            return self.string(key).map(drop);
        }
        let start = self.at;
        while self.peek().is_some_and(|b| b.is_ascii_alphanumeric() || b"+-._".contains(&b)) {
            self.at += 1;
        }
        if self.at == start {
            return Err(self.unexpected(key, "is neither a scalar nor a flat array of scalars"));
        }
        Ok(())
    }
}

fn missing_field(key: &str, line: &str) -> String {
    format!("capture line is missing field \"{key}\": {line}")
}

/// A required integer field as an index.
fn index_field(slot: Option<u64>, key: &str, line: &str) -> Result<usize, String> {
    let value = slot.ok_or_else(|| missing_field(key, line))?;
    usize::try_from(value).map_err(|_| format!("field \"{key}\" does not fit an index: {line}"))
}

/// The shortest event line there is: every key, one-digit values, no seeds.
const MIN_EVENT_LINE: usize =
    r#"{"t_us":0,"client":0,"op":"sync","round":0,"bytes":0,"content":[]}"#.len();

/// Parses the header line into a capture with no events yet.
fn parse_header(line: &str) -> Result<FleetCapture, String> {
    let (mut format, mut version, mut links) = (None, None, None);
    let (mut clients, mut client_base, mut commits, mut files) = (None, None, None, None);
    let (mut file_size, mut shared, mut horizon_us, mut seed) = (None, None, None, None);
    Cursor::members(line, |cursor, key| match key {
        "format" => {
            let name = cursor.string(key)?;
            cursor.set(&mut format, name, key)
        }
        "version" => cursor.integer_into(&mut version, key),
        "clients" => cursor.integer_into(&mut clients, key),
        "client_base" => cursor.integer_into(&mut client_base, key),
        "commits_per_client" => cursor.integer_into(&mut commits, key),
        "files_per_commit" => cursor.integer_into(&mut files, key),
        "file_size" => cursor.integer_into(&mut file_size, key),
        "shared_files_per_commit" => cursor.integer_into(&mut shared, key),
        "horizon_us" => cursor.integer_into(&mut horizon_us, key),
        "seed" => cursor.integer_into(&mut seed, key),
        "links" => {
            let mut names = Vec::new();
            cursor.array(key, |cursor| {
                let name = cursor.string(key)?;
                // Version 1 readers have always cut this array at every
                // comma, so no capture they accept names a link with one.
                if name.contains(',') {
                    return Err(cursor.fail(format_args!("link entry \"{name}\" holds a ','")));
                }
                names.push(name.to_owned());
                Ok(())
            })?;
            cursor.set(&mut links, names, key)
        }
        _ => cursor.skip_value(key),
    })?;

    let format = format.ok_or_else(|| missing_field("format", line))?;
    if format != CAPTURE_FORMAT {
        return Err(format!("unknown capture format \"{format}\" (expected \"{CAPTURE_FORMAT}\")"));
    }
    let version = version.ok_or_else(|| missing_field("version", line))?;
    if version != CAPTURE_VERSION {
        return Err(format!(
            "unsupported capture version {version} (this build reads version {CAPTURE_VERSION})"
        ));
    }
    Ok(FleetCapture {
        clients: index_field(clients, "clients", line)?,
        commits_per_client: index_field(commits, "commits_per_client", line)?,
        files_per_commit: index_field(files, "files_per_commit", line)?,
        file_size: file_size.ok_or_else(|| missing_field("file_size", line))?,
        shared_files_per_commit: index_field(shared, "shared_files_per_commit", line)?,
        horizon: SimDuration::from_micros(
            horizon_us.ok_or_else(|| missing_field("horizon_us", line))?,
        ),
        seed: seed.ok_or_else(|| missing_field("seed", line))?,
        link_names: links.ok_or_else(|| missing_field("links", line))?,
        // `client_base` was introduced alongside capture slicing; whole-run
        // captures omit it, so a missing field means base zero.
        client_base: index_field(client_base.or(Some(0)), "client_base", line)?,
        events: Vec::new(),
    })
}

/// Parses one event line of a capture whose header promises
/// `files_per_commit` content seeds per event.
fn parse_event(line: &str, files_per_commit: usize) -> Result<CaptureEvent, String> {
    let (mut at, mut client, mut round, mut bytes) = (None, None, None, None);
    let (mut op, mut content_seeds) = (None, None);
    Cursor::members(line, |cursor, key| match key {
        "t_us" => cursor.integer_into(&mut at, key),
        "client" => cursor.integer_into(&mut client, key),
        "round" => cursor.integer_into(&mut round, key),
        "bytes" => cursor.integer_into(&mut bytes, key),
        "op" => {
            let name = cursor.string(key)?;
            cursor.set(&mut op, name, key)
        }
        "content" => {
            // Sized from the header — but a seed and its comma are two
            // bytes of the line, which bounds what a header can ask for.
            let mut seeds = Vec::with_capacity(files_per_commit.min(line.len() / 2));
            cursor.array(key, |cursor| {
                seeds.push(cursor.integer(key)?);
                Ok(())
            })?;
            cursor.set(&mut content_seeds, seeds, key)
        }
        _ => cursor.skip_value(key),
    })?;

    let op = op.ok_or_else(|| missing_field("op", line))?;
    if op != "sync" {
        return Err(format!(
            "capture version {CAPTURE_VERSION} only records \"sync\" events, got \"{op}\""
        ));
    }
    Ok(CaptureEvent {
        at: SimTime::from_micros(at.ok_or_else(|| missing_field("t_us", line))?),
        client: index_field(client, "client", line)?,
        round: index_field(round, "round", line)?,
        bytes: bytes.ok_or_else(|| missing_field("bytes", line))?,
        content_seeds: content_seeds.ok_or_else(|| missing_field("content", line))?,
    })
}

/// Parses a capture rendered by [`render_capture`] (or by a newer build
/// writing the same version). Rejects unknown formats and versions, and
/// validates every event against the header so a truncated or hand-edited
/// capture fails loudly instead of replaying garbage. Blank lines are
/// skipped; every other line is one flat JSON object, read in one pass by
/// one cursor (keys in any order, ASCII whitespace between tokens, keys
/// this build does not know skipped), and an error about a line ends in
/// that line.
///
/// The readers this replaces searched each line for `"key":` once per
/// field and took whatever followed. Every capture this parser accepts
/// they accepted too, and read the same; it is **stricter** in that it
/// rejects
///
/// * a line that is not exactly one flat object: text before the `{` or
///   after the closing `}` (or no closing `}` at all behind a key nobody
///   reads), a missing, doubled or trailing comma, and — even under a key
///   this build skips — a nested object or array or no value at all;
/// * a field it reads given twice (the first used to win);
/// * an integer written with a sign (`+5` used to parse);
/// * whitespace that is not ASCII between tokens.
pub fn parse_capture(text: &str) -> Result<FleetCapture, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let mut capture = parse_header(lines.next().ok_or("capture is empty")?)?;

    // Reserved from the header, bounded by the text: no event line is
    // shorter than `MIN_EVENT_LINE`, so a hostile header cannot demand
    // memory the file does not back.
    let promised = capture.clients.saturating_mul(capture.commits_per_client);
    capture.events.reserve(promised.min(text.len() / MIN_EVENT_LINE));
    for line in lines {
        capture.events.push(parse_event(line, capture.files_per_commit)?);
    }
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
    let driven = drive(Source::Capture(capture, mix), &store)?;
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
        assert_eq!(capture.horizon, ScaleSpec::HORIZON);
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
        let hostile: [(&str, Tamper); 11] = [
            ("no access links", |c| c.link_names.clear()),
            ("outside the header's [2, 5) range", |c| c.client_base = 2),
            ("outside the header's [0, 3) range", |c| c.events[1].client = 3),
            ("round 2 outside the 2-commit header", |c| c.events[0].round = 2),
            ("content seeds for a 4-file commit", |c| c.events[2].content_seeds.truncate(1)),
            ("bytes but the header's commit is", |c| c.events[0].bytes += 1),
            ("events but the header promises 6", |c| c.events.truncate(5)),
            ("empty population", |c| c.files_per_commit = 0),
            ("too large to index", |c| c.client_base = usize::MAX),
            ("draws 9 shared files per commit from a 4-file commit", |c| {
                c.shared_files_per_commit = 9
            }),
            // 2^60-byte files whose events carry the matching 2^62 bytes:
            // the run's logical bytes used to wrap to 0 in release builds.
            ("the run total of 6 commits", |c| {
                c.file_size = 1 << 60;
                c.events.iter_mut().for_each(|e| e.bytes = 4 << 60);
            }),
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

        // An instant near the end of the clock is a valid header and valid
        // events, but its transfers would end past u64::MAX µs: a release
        // build used to wrap the run's span to 2513.5 s. The replay refuses
        // it once the mix has fixed the links and round trips.
        let mut late = good.clone();
        late.events[5].at = SimTime::from_micros(18_446_744_073_709_551_000);
        assert!(late.validate().is_ok());
        assert_eq!(parse_capture(&render_fleet_capture(&late)).as_ref(), Ok(&late));
        let err = replay(&late, &ReplayMix::Original, 2).unwrap_err();
        assert!(err.contains("t_us 18446744073709551000") && err.contains("u64 µs"), "{err}");
        let part = PartitionSpec {
            index: 0,
            clients: ClientSet::Range { start: 0, end: 3 },
            workload: PartitionWorkload::Slice(late),
        };
        let store = ObjectStore::with_policy(GcPolicy::MarkSweep);
        assert_eq!(run_partition(&part, &store, 2).unwrap_err(), format!("partition 0: {err}"));

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

    /// The readers `Cursor` replaced, kept word for word as the reference
    /// the differential tests below hold it against: six scrapers that
    /// search a line for `"key":` once per field.
    mod v1 {
        use super::super::*;

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

        pub(super) fn parse_capture(text: &str) -> Result<FleetCapture, String> {
            let mut lines = text.lines().filter(|l| !l.trim().is_empty());
            let header = lines.next().ok_or("capture is empty")?;

            let format = str_field(header, "format")?;
            if format != CAPTURE_FORMAT {
                return Err(format!(
                    "unknown capture format \"{format}\" (expected \"{CAPTURE_FORMAT}\")"
                ));
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
            let (
                clients,
                commits_per_client,
                files_per_commit,
                file_size,
                shared,
                horizon_us,
                seed,
                links,
            ) = capture_header;
            // `client_base` was introduced alongside capture slicing; whole-run
            // captures omit it, so a missing field means base zero.
            let client_base = if header.contains("\"client_base\":") {
                usize_field(header, "client_base")?
            } else {
                0
            };
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
    }

    /// What a differential check may find besides full agreement.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Expect {
        /// Both read it, and read the same; or both refuse it.
        Same,
        /// As `Same`, or — a documented difference of [`parse_capture`] —
        /// the reference reads what the parser refuses.
        SameOrStricter,
    }

    /// Holds the parser against the reference on `text`, whose line
    /// `mutated` was tampered with. Never the other way round: what the
    /// parser reads, the reference reads the same. And an error names the
    /// line, unless it is one the reference words identically (a check
    /// above the lines: format, version, op, `validate`).
    fn check_against_v1(text: &str, mutated: &str, expect: Expect) -> Result<FleetCapture, String> {
        let (new, old) = (parse_capture(text), v1::parse_capture(text));
        match (&new, &old) {
            (Ok(new), Ok(old)) => assert_eq!(new, old, "read differently: {mutated}"),
            (Ok(_), Err(err)) => panic!("laxer than the reference ({err}): {mutated}"),
            (Err(err), Ok(_)) => {
                assert_eq!(expect, Expect::SameOrStricter, "refused ({err}): {mutated}");
                assert!(err.contains(mutated), "no line in: {err}");
            }
            (Err(err), Err(old_err)) => assert!(
                err.contains(mutated) || err == old_err,
                "no line in \"{err}\" (reference: \"{old_err}\")"
            ),
        }
        new
    }

    /// `text` with its line `index` replaced.
    fn with_line(text: &str, index: usize, line: &str) -> String {
        let mut lines: Vec<&str> = text.lines().collect();
        lines[index] = line;
        lines.join("\n")
    }

    /// The `"key":value` members of a rendered line.
    fn members_of(line: &str) -> Vec<&str> {
        let inner = line.strip_prefix('{').and_then(|l| l.strip_suffix('}')).expect("an object");
        let (mut members, mut depth, mut start) = (Vec::new(), 0, 0);
        for (at, byte) in inner.bytes().enumerate() {
            match byte {
                b'[' => depth += 1,
                b']' => depth -= 1,
                b',' if depth == 0 => {
                    members.push(&inner[start..at]);
                    start = at + 1;
                }
                _ => {}
            }
        }
        members.push(&inner[start..]);
        members
    }

    /// A whole-run capture and a slice of it (which has `client_base`),
    /// each with the lines the mutations work on: the header and an event.
    fn differential_bases() -> Vec<(String, [usize; 2])> {
        let capture = capture_of_spec(&ScaleSpec::new(5).with_seed(0xD1FF));
        let slices = slice_capture(&capture, &[(0, 2), (2, 5)]).unwrap();
        vec![(render_fleet_capture(&capture), [0, 3]), (render_fleet_capture(&slices[1]), [0, 1])]
    }

    #[test]
    fn the_cursor_reads_rendered_captures_like_the_v1_scrapers() {
        for (text, _) in differential_bases() {
            check_against_v1(&text, "", Expect::Same).expect("a rendered capture parses");
            // CRLF line ends and blank lines are not the parser's business.
            let spaced = text.replace('\n', "\r\n\r\n");
            assert_eq!(check_against_v1(&spaced, "", Expect::Same), parse_capture(&text));
        }
    }

    #[test]
    fn reordered_and_spaced_lines_read_the_same() {
        for (text, lines) in differential_bases() {
            let parsed = parse_capture(&text).unwrap();
            for index in lines {
                let line = text.lines().nth(index).unwrap();
                let members = members_of(line);
                // Every rotation of the members, and their reversal.
                let mut orders: Vec<Vec<&str>> = (0..members.len())
                    .map(|by| {
                        let mut rotated = members.clone();
                        rotated.rotate_left(by);
                        rotated
                    })
                    .collect();
                orders.push(members.iter().rev().copied().collect());
                for order in orders {
                    let reordered = format!("{{{}}}", order.join(","));
                    let read = check_against_v1(
                        &with_line(&text, index, &reordered),
                        &reordered,
                        Expect::Same,
                    );
                    assert_eq!(read.as_ref(), Ok(&parsed), "{reordered}");
                }
                // Whitespace between any two tokens: around every brace,
                // bracket and comma and after every key's colon.
                for gap in [" ", "\t", " \t  "] {
                    let mut spaced = String::new();
                    let mut in_string = false;
                    for c in line.chars() {
                        in_string ^= c == '"';
                        let structural = !in_string && "{}[],".contains(c);
                        if structural {
                            spaced.push_str(gap);
                        }
                        spaced.push(c);
                        if structural || (!in_string && c == ':') {
                            spaced.push_str(gap);
                        }
                    }
                    let read =
                        check_against_v1(&with_line(&text, index, &spaced), &spaced, Expect::Same);
                    assert_eq!(read.as_ref(), Ok(&parsed), "{spaced}");
                }
                // Inside a key token there is none, then as now.
                let split_key = line.replacen("\":", "\" :", 1);
                let err = check_against_v1(
                    &with_line(&text, index, &split_key),
                    &split_key,
                    Expect::Same,
                )
                .unwrap_err();
                assert!(err.contains("not directly followed by ':'"), "got: {err}");
            }
        }
    }

    #[test]
    fn dropped_repeated_and_unknown_keys() {
        for (text, lines) in differential_bases() {
            let parsed = parse_capture(&text).unwrap();
            for index in lines {
                let line = text.lines().nth(index).unwrap();
                let members = members_of(line);
                for (at, member) in members.iter().enumerate() {
                    let key = member.split(':').next().unwrap().trim_matches('"');
                    // Dropped: an error naming the key — but for the one
                    // optional key, whose absence means zero.
                    let mut without = members.clone();
                    without.remove(at);
                    let dropped = format!("{{{}}}", without.join(","));
                    let err = check_against_v1(
                        &with_line(&text, index, &dropped),
                        &dropped,
                        Expect::Same,
                    )
                    .unwrap_err();
                    if key == "client_base" {
                        assert!(err.contains("outside the header's [0, 3) range"), "got: {err}");
                    } else {
                        assert!(err.contains(&format!("missing field \"{key}\"")), "got: {err}");
                    }
                    // Repeated: the reference takes the first, the parser
                    // takes neither — whether the two agree or not.
                    let other = match member.as_bytes()[key.len() + 3] {
                        b'"' => "\"other\"",
                        b'[' => "[]",
                        _ => "7",
                    };
                    for again in [member.to_string(), format!("\"{key}\":{other}")] {
                        let mut twice = members.clone();
                        twice.push(&again);
                        let repeated = format!("{{{}}}", twice.join(","));
                        let err = check_against_v1(
                            &with_line(&text, index, &repeated),
                            &repeated,
                            Expect::SameOrStricter,
                        )
                        .unwrap_err();
                        assert!(err.contains(&format!("\"{key}\" appears twice")), "got: {err}");
                    }
                }
                // Keys of a later build, with every kind of flat value,
                // are skipped wherever they sit.
                for unknown in [
                    "\"note\":\"t_us\"",
                    "\"ratio\":-1.5e3",
                    "\"flag\":true",
                    "\"tags\":[\"a\",\"client\", 7 ,null]",
                    "\"none\":[]",
                ] {
                    for at in [0, members.len() / 2, members.len()] {
                        let mut with = members.clone();
                        with.insert(at, unknown);
                        let extended = format!("{{{}}}", with.join(","));
                        let read = check_against_v1(
                            &with_line(&text, index, &extended),
                            &extended,
                            Expect::Same,
                        );
                        assert_eq!(read.as_ref(), Ok(&parsed), "{extended}");
                    }
                }
                // What is not a flat value is refused even under a key
                // nobody reads; the reference never looked.
                for nested in ["\"deep\":{\"a\":1}", "\"deep\":[[1]]", "\"deep\":", "\"deep\":1 2"]
                {
                    let extended = format!("{{{},{nested}}}", members.join(","));
                    check_against_v1(
                        &with_line(&text, index, &extended),
                        &extended,
                        Expect::SameOrStricter,
                    )
                    .unwrap_err();
                }
            }
        }
    }

    #[test]
    fn truncated_lines_are_errors_naming_the_line() {
        for (text, lines) in differential_bases() {
            for index in lines {
                let line = text.lines().nth(index).unwrap();
                for cut in 0..line.len() {
                    let truncated = &line[..cut];
                    // A line cut to nothing is a blank line: skipped, and
                    // missed by `validate` (or, the header gone, the first
                    // event line is no header).
                    check_against_v1(&with_line(&text, index, truncated), truncated, Expect::Same)
                        .unwrap_err();
                }
            }
        }
    }

    #[test]
    fn replaced_digits_and_stray_structure() {
        for (text, lines) in differential_bases() {
            for index in lines {
                let line = text.lines().nth(index).unwrap();
                for (at, byte) in line.bytes().enumerate() {
                    let splice = |with: &str, replace: bool| {
                        format!("{}{with}{}", &line[..at], &line[at + usize::from(replace)..])
                    };
                    if byte.is_ascii_digit() {
                        // Another digit moves a value (and `validate` may
                        // mind); a letter, a sign or a gap ends the number.
                        for with in ["0", "9", "x", "-", " ", ""] {
                            let replaced = splice(with, true);
                            let _ = check_against_v1(
                                &with_line(&text, index, &replaced),
                                &replaced,
                                Expect::Same,
                            );
                        }
                        // `+5` was `str::parse`'s idea of an integer.
                        let signed = splice("+", false);
                        let _ = check_against_v1(
                            &with_line(&text, index, &signed),
                            &signed,
                            Expect::SameOrStricter,
                        );
                    }
                    // A stray bracket, quote, brace, comma or colon before
                    // every byte: the reference shrugs some off (a `}` or
                    // `,` that ends a value early and leaves text behind).
                    for stray in ["]", "[", "\"", "}", "{", ",", ":"] {
                        let broken = splice(stray, false);
                        let _ = check_against_v1(
                            &with_line(&text, index, &broken),
                            &broken,
                            Expect::SameOrStricter,
                        );
                    }
                }
                // A value past u64 is an error, not a wrap.
                for key in ["\"seed\":", "\"t_us\":"] {
                    if line.contains(key) {
                        let huge = line.replacen(key, &format!("{key}18446744073709551616"), 1);
                        let err =
                            check_against_v1(&with_line(&text, index, &huge), &huge, Expect::Same)
                                .unwrap_err();
                        assert!(err.contains("is not an integer (too large)"), "got: {err}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_hostile_header_cannot_demand_memory() {
        // Ten bytes of header fields that promise 2^60 events of 2^60
        // seeds each: both reservations are bounded by the text.
        let text = render_capture(&ScaleSpec::new(2).with_seed(1))
            .replacen("\"clients\":2", "\"clients\":1152921504606846976", 1)
            .replacen("\"files_per_commit\":4", "\"files_per_commit\":1152921504606846976", 1);
        let err = check_against_v1(&text, "", Expect::Same).unwrap_err();
        assert!(err.contains("too large to index"), "got: {err}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random byte edits from the grammar's own alphabet, several per
        /// line: never a panic, never laxer than the reference, and an
        /// error that names the line.
        #[test]
        fn random_edits_never_make_the_cursor_laxer(
            sliced in proptest::prelude::any::<bool>(),
            event in proptest::prelude::any::<bool>(),
            edits in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..4),
        ) {
            const ALPHABET: &[u8] = b"{}[]\",: \t0123456789+-xsync";
            let (text, lines) = differential_bases().swap_remove(usize::from(sliced));
            let index = lines[usize::from(event)];
            let mut line = text.lines().nth(index).unwrap().as_bytes().to_vec();
            for edit in edits {
                let at = (edit >> 8) as usize % line.len();
                let with = ALPHABET[(edit >> 40) as usize % ALPHABET.len()];
                match edit % 3 {
                    0 => line[at] = with,
                    1 => line.insert(at, with),
                    _ => drop(line.remove(at)),
                }
                if line.is_empty() {
                    break;
                }
            }
            let line = String::from_utf8(line).expect("ASCII in, ASCII out");
            let _ = check_against_v1(&with_line(&text, index, &line), &line, Expect::SameOrStricter);
        }
    }
}

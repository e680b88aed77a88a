//! IP allocation registry (the synthetic "whois" service).
//!
//! §2.1: "The owners of the IP addresses are identified using the whois
//! service." The registry maps address blocks to owning organisations so the
//! architecture-discovery pipeline can tell, e.g., that Dropbox's storage
//! addresses belong to Amazon while its control addresses belong to Dropbox
//! itself, or that none of Wuala's data centres are owned by Wuala (§3.2).

use serde::Serialize;

/// One allocated address block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct IpBlock {
    /// First address of the block (inclusive), host byte order.
    pub start: u32,
    /// Last address of the block (inclusive).
    pub end: u32,
    /// Owning organisation as whois would report it.
    pub owner: String,
}

impl IpBlock {
    /// Creates a block from dotted-quad bounds.
    pub fn new(start: [u8; 4], end: [u8; 4], owner: &str) -> Self {
        let s = u32::from_be_bytes(start);
        let e = u32::from_be_bytes(end);
        assert!(s <= e, "block start must not exceed end");
        IpBlock { start: s, end: e, owner: owner.to_string() }
    }

    /// Creates a CIDR-style block `base/prefix`.
    pub fn cidr(base: [u8; 4], prefix: u8, owner: &str) -> Self {
        assert!(prefix <= 32, "invalid prefix length");
        let base = u32::from_be_bytes(base);
        let mask = if prefix == 0 { 0 } else { u32::MAX << (32 - prefix) };
        let start = base & mask;
        let end = start | !mask;
        IpBlock { start, end, owner: owner.to_string() }
    }

    /// True when the block contains the address.
    pub fn contains(&self, addr: u32) -> bool {
        (self.start..=self.end).contains(&addr)
    }

    /// Number of addresses in the block.
    pub fn size(&self) -> u64 {
        (self.end - self.start) as u64 + 1
    }
}

/// The registry of all allocated blocks.
#[derive(Debug, Clone, Default, Serialize)]
pub struct IpRegistry {
    blocks: Vec<IpBlock>,
}

impl IpRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        IpRegistry::default()
    }

    /// Registers a block. More specific (smaller) blocks take precedence over
    /// broader ones on lookup, mirroring real allocation hierarchies.
    pub fn register(&mut self, block: IpBlock) {
        self.blocks.push(block);
    }

    /// Looks up the owner of an address (whois query). Returns the most
    /// specific covering block, if any.
    pub fn lookup(&self, addr: u32) -> Option<&IpBlock> {
        self.blocks.iter().filter(|b| b.contains(addr)).min_by_key(|b| b.size())
    }

    /// Convenience: owner name for an address, `"unknown"` when unallocated.
    pub fn owner(&self, addr: u32) -> &str {
        self.lookup(addr).map(|b| b.owner.as_str()).unwrap_or("unknown")
    }

    /// Number of registered blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when no block is registered.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// Converts dotted-quad octets to the `u32` representation used everywhere.
pub fn addr(octets: [u8; 4]) -> u32 {
    u32::from_be_bytes(octets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cidr_blocks_cover_the_expected_range() {
        let b = IpBlock::cidr([10, 1, 0, 0], 16, "ExampleCo");
        assert!(b.contains(addr([10, 1, 0, 0])));
        assert!(b.contains(addr([10, 1, 255, 255])));
        assert!(!b.contains(addr([10, 2, 0, 0])));
        assert_eq!(b.size(), 65536);
        let whole = IpBlock::cidr([0, 0, 0, 0], 0, "IANA");
        assert_eq!(whole.size(), 1u64 << 32);
    }

    #[test]
    fn lookup_prefers_the_most_specific_block() {
        let mut reg = IpRegistry::new();
        reg.register(IpBlock::cidr([54, 0, 0, 0], 8, "Amazon.com, Inc."));
        reg.register(IpBlock::cidr([54, 231, 0, 0], 16, "Amazon S3 (US-East)"));
        assert_eq!(reg.owner(addr([54, 231, 1, 1])), "Amazon S3 (US-East)");
        assert_eq!(reg.owner(addr([54, 10, 0, 1])), "Amazon.com, Inc.");
        assert_eq!(reg.owner(addr([8, 8, 8, 8])), "unknown");
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
    }

    #[test]
    fn lookup_returns_block_details() {
        let mut reg = IpRegistry::new();
        reg.register(IpBlock::new([192, 0, 2, 0], [192, 0, 2, 255], "TestNet"));
        let found = reg.lookup(addr([192, 0, 2, 42])).unwrap();
        assert_eq!(found.owner, "TestNet");
        assert_eq!((found.start, found.end), (addr([192, 0, 2, 0]), addr([192, 0, 2, 255])));
        assert!(reg.lookup(addr([192, 0, 3, 1])).is_none());
    }

    #[test]
    #[should_panic(expected = "block start must not exceed end")]
    fn inverted_block_bounds_panic() {
        let _ = IpBlock::new([10, 0, 0, 2], [10, 0, 0, 1], "x");
    }

    #[test]
    #[should_panic(expected = "invalid prefix length")]
    fn bad_prefix_panics() {
        let _ = IpBlock::cidr([10, 0, 0, 0], 33, "x");
    }
}

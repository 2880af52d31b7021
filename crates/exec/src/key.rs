//! Typed 128-bit content-hash cache keys, and the workspace's one
//! FNV-1a.
//!
//! The campaign result cache and serve's response cache share one
//! keying scheme: two independent FNV-1a streams (distinct offset
//! bases, one stream rotated per chunk) over a version salt plus the
//! caller's content, rendered as 32 hex digits. This module owns the
//! scheme; [`KeyBuilder`] is the typed face that replaces hand-rolled
//! `format!("…|v1|…")` descriptor strings — each field is hashed as
//! `name=value` with an explicit `\x1f` separator, so no two field
//! layouts can collide by string concatenation.
//!
//! [`fnv1a`] is also the seed mixer behind `campaign::circuit_seed`,
//! the fault injector's per-node streams and the store's chaos
//! schedule.

use std::fmt;

/// A computed 128-bit cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u64, u64);

impl CacheKey {
    /// Hex form of the key (32 digits).
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }
}

/// The 64-bit FNV-1a offset basis: the starting `state` of a fresh
/// [`fnv1a`] stream.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf29ce484222325;

/// Folds `bytes` into the 64-bit FNV-1a stream `state` and returns the
/// new state. Start a stream from [`FNV_OFFSET_BASIS`]; feeding chunks
/// one after another equals feeding their concatenation.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x100000001b3);
    }
    state
}

/// Incremental builder of a [`CacheKey`].
///
/// The raw [`KeyBuilder::chunk`] face feeds bytes verbatim (the
/// campaign's `cell_key` uses it, so its keys stay the byte stream
/// they have always been). The typed
/// [`KeyBuilder::field`] face is for new key layouts: it frames each
/// value with its name and a separator so fields cannot bleed into one
/// another.
#[derive(Debug, Clone, Copy)]
pub struct KeyBuilder {
    a: u64,
    b: u64,
}

impl KeyBuilder {
    /// Starts a key stream salted with a layout version: bump the
    /// version and every old entry becomes invisible rather than
    /// misparsed.
    pub fn new(version: u32) -> KeyBuilder {
        KeyBuilder {
            a: FNV_OFFSET_BASIS,
            b: 0x6c62272e07bb0142, // distinct offset basis
        }
        .chunk(format!("v{version}\u{1f}").as_bytes())
    }

    /// Feeds raw bytes into both streams.
    pub fn chunk(mut self, bytes: &[u8]) -> KeyBuilder {
        self.a = fnv1a(self.a, bytes);
        self.b = fnv1a(self.b, bytes).rotate_left(17);
        self
    }

    /// Feeds a named, separator-framed field.
    pub fn field(self, name: &str, value: &dyn fmt::Display) -> KeyBuilder {
        self.chunk(format!("{name}={value}\u{1f}").as_bytes())
    }

    /// Feeds a large text payload (e.g. a whole `.bench` file).
    pub fn text(self, text: &str) -> KeyBuilder {
        self.chunk(text.as_bytes())
    }

    /// Finalises the key.
    pub fn finish(self) -> CacheKey {
        CacheKey(self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_framed_against_concatenation() {
        let k1 = KeyBuilder::new(1)
            .field("alg", &"ab")
            .field("seed", &7)
            .finish();
        let k2 = KeyBuilder::new(1)
            .field("alg", &"a")
            .field("seed", &"b7")
            .finish();
        assert_ne!(k1, k2);
        let k3 = KeyBuilder::new(1)
            .field("alg", &"ab")
            .field("seed", &7)
            .finish();
        assert_eq!(k1, k3);
    }

    #[test]
    fn version_salts_the_stream() {
        let k1 = KeyBuilder::new(1).text("same").finish();
        let k2 = KeyBuilder::new(2).text("same").finish();
        assert_ne!(k1, k2);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors_and_chains() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(FNV_OFFSET_BASIS, b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(FNV_OFFSET_BASIS, b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(FNV_OFFSET_BASIS, b"foobar"), 0x85944171f73967e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET_BASIS, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET_BASIS, b"foobar")
        );
    }

    #[test]
    fn hex_is_32_digits_and_stable() {
        let k = KeyBuilder::new(1).chunk(b"x").finish();
        assert_eq!(k.hex().len(), 32);
        assert_eq!(k.hex(), KeyBuilder::new(1).chunk(b"x").finish().hex());
    }
}

//! memchr-style chunked byte scanning with runtime SIMD dispatch for
//! the front-end hot loops.
//!
//! Every byte-level boundary scanner in the workspace spends its time
//! answering one of two questions. The first is *where is the next
//! special byte?* — the next delimiter, quote or line ending for CSV,
//! the next `<`/`&` for XML character data. Answering it byte-at-a-time
//! wastes the memory bus. The `find_*` helpers split the work in two:
//!
//! * a bounded **short-hop probe** (≤ 16 scalar bytes, which LLVM
//!   autovectorizes) handles the common case of a special a few bytes
//!   away, where starting a vector kernel costs more than it saves;
//! * runs longer than the probe fall through to a **kernel picked once
//!   per process** from a function-pointer table, memchr-style: AVX2
//!   when `is_x86_feature_detected!` says so, SSE2 on every x86-64,
//!   NEON on aarch64, and the portable SWAR word loop everywhere else
//!   (the build environment has no crates.io, so `memchr` itself is out
//!   of reach):
//!
//! ```text
//! zero_byte_mask(x) = (x - 0x0101…) & !x & 0x8080…
//! ```
//!
//! sets the high bit of every byte of `x` that is zero; XORing the word
//! with a splatted needle first turns "find byte `b`" into "find zero".
//! `u64::from_le_bytes` + `trailing_zeros` keep the index math
//! endian-correct everywhere.
//!
//! The second question is JSON's: *where do records end?*
//! [`json_blocks`] answers it 64 bytes at a time with a structural
//! index (Langdale & Lemire, *Parsing Gigabytes of JSON per Second*).
//! Per block it builds one bitmask each for `"`, `\`, `{[` and `}]`,
//! marks the bytes that odd backslash runs escape (with a carry into
//! the next block), and takes the in-string mask as the prefix-XOR of
//! the unescaped quotes — one carry-less multiply (`PCLMULQDQ`) on the
//! AVX2 backend, a six-step shift cascade on the SSE2, NEON and SWAR
//! floors. Bracket depth and record ends then come from walking the set
//! bits outside strings, one block walk for any number of records. The
//! walk stops where its bit rules could differ from the per-byte state
//! machine in `tfd_json::stream` — a top-level scalar, string or junk
//! byte between records, a backslash outside a string, fewer than 64
//! bytes left — and that machine takes the bytes from there, so every
//! boundary is the one the byte-stepping scanner reports
//! (`tests/scan_backends.rs`).
//!
//! The selected kernel is visible as [`backend_name`] (perfbench records
//! it with its host facts), every compiled kernel is enumerable via
//! [`available_backends`] and forcible via [`force_backend`] or the
//! `TFD_SCAN_BACKEND` environment variable — which is how the
//! `tests/scan_backends.rs` differential suite proves every kernel
//! byte-identical to the scalar reference.
//!
//! The module lives in `tfd-value` (the one crate every front-end
//! depends on) so the CSV, JSON and XML scanners all share one
//! implementation, and so the unsafe vector code stays in its arch
//! modules here while the front-ends forbid unsafe code. The unit
//! tests keep the byte-at-a-time loops the helpers replaced, as the
//! reference for the public helpers on crafted inputs.

use std::sync::atomic::{AtomicU8, Ordering};

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// Length of the scalar short-hop probe the public wrappers run before
/// dispatching to a kernel.
const PROBE: usize = 16;

#[inline]
fn splat(b: u8) -> u64 {
    u64::from(b) * LO
}

/// High bit set in every byte of `x` that is zero.
#[inline]
fn zero_byte_mask(x: u64) -> u64 {
    x.wrapping_sub(LO) & !x & HI
}

// --- The dispatch table ---

/// One scanner implementation: the four arities the front-ends use,
/// plus the JSON structural-block walk.
#[allow(clippy::type_complexity)] // plain fn-pointer fields; aliases would obscure them
struct Kernels {
    name: &'static str,
    find_byte: fn(&[u8], u8) -> Option<usize>,
    find_any2: fn(&[u8], u8, u8) -> Option<usize>,
    find_any3: fn(&[u8], u8, u8, u8) -> Option<usize>,
    find_any5: fn(&[u8], u8, u8, u8, u8, u8) -> Option<usize>,
    json_blocks: fn(&[u8], usize, &mut JsonWalk, &mut dyn FnMut(usize)) -> usize,
}

static SWAR_KERNELS: Kernels = Kernels {
    name: "swar",
    find_byte: swar::find_byte,
    find_any2: swar::find_any2,
    find_any3: swar::find_any3,
    find_any5: swar::find_any5,
    json_blocks: swar::json_blocks,
};

#[cfg(target_arch = "x86_64")]
static SSE2_KERNELS: Kernels = Kernels {
    name: "sse2",
    find_byte: x86::sse2_find_byte,
    find_any2: x86::sse2_find_any2,
    find_any3: x86::sse2_find_any3,
    find_any5: x86::sse2_find_any5,
    json_blocks: x86::sse2_json_blocks,
};

#[cfg(target_arch = "x86_64")]
static AVX2_KERNELS: Kernels = Kernels {
    name: "avx2",
    find_byte: x86::avx2_find_byte,
    find_any2: x86::avx2_find_any2,
    find_any3: x86::avx2_find_any3,
    find_any5: x86::avx2_find_any5,
    json_blocks: x86::avx2_json_blocks,
};

#[cfg(target_arch = "aarch64")]
static NEON_KERNELS: Kernels = Kernels {
    name: "neon",
    find_byte: neon::find_byte,
    find_any2: neon::find_any2,
    find_any3: neon::find_any3,
    find_any5: neon::find_any5,
    // NEON has no movemask; the block classifier is the SWAR one.
    json_blocks: swar::json_blocks,
};

// Backend selector values for the one-word dispatch state. 0 means
// "not yet selected"; `kernels()` resolves it exactly once per process
// (or after a `force_backend` reset) and every later call is one
// relaxed load + a two-instruction match.
const B_UNSET: u8 = 0;
const B_SWAR: u8 = 1;
#[cfg(target_arch = "x86_64")]
const B_SSE2: u8 = 2;
#[cfg(target_arch = "x86_64")]
const B_AVX2: u8 = 3;
#[cfg(target_arch = "aarch64")]
const B_NEON: u8 = 4;

static ACTIVE: AtomicU8 = AtomicU8::new(B_UNSET);

#[inline]
fn kernels() -> &'static Kernels {
    match ACTIVE.load(Ordering::Relaxed) {
        B_SWAR => &SWAR_KERNELS,
        #[cfg(target_arch = "x86_64")]
        B_SSE2 => &SSE2_KERNELS,
        #[cfg(target_arch = "x86_64")]
        B_AVX2 => &AVX2_KERNELS,
        #[cfg(target_arch = "aarch64")]
        B_NEON => &NEON_KERNELS,
        _ => select_kernels(),
    }
}

/// Cold path: picks the widest kernel the host supports (honouring a
/// `TFD_SCAN_BACKEND` override), publishes it, and returns it. Racing
/// initializers agree on the answer, so the store needs no CAS.
#[cold]
fn select_kernels() -> &'static Kernels {
    let forced = std::env::var("TFD_SCAN_BACKEND").ok();
    let id = forced
        .as_deref()
        .and_then(backend_id)
        .unwrap_or_else(detect_backend);
    ACTIVE.store(id, Ordering::Relaxed);
    by_id(id)
}

/// The widest backend this host can run.
fn detect_backend() -> u8 {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_runnable() {
            return B_AVX2;
        }
        return B_SSE2;
    }
    #[cfg(target_arch = "aarch64")]
    {
        return B_NEON;
    }
    #[allow(unreachable_code)]
    B_SWAR
}

/// The selector for `name`, if that backend is compiled in *and*
/// runnable on this host.
fn backend_id(name: &str) -> Option<u8> {
    match name {
        "swar" => Some(B_SWAR),
        #[cfg(target_arch = "x86_64")]
        "sse2" => Some(B_SSE2),
        #[cfg(target_arch = "x86_64")]
        "avx2" if avx2_runnable() => Some(B_AVX2),
        #[cfg(target_arch = "aarch64")]
        "neon" => Some(B_NEON),
        _ => None,
    }
}

/// The AVX2 backend's JSON block walk takes its prefix-XOR with
/// `PCLMULQDQ`, which every AVX2 part ships with; a host lacking either
/// runs the SSE2 backend.
#[cfg(target_arch = "x86_64")]
fn avx2_runnable() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("pclmulqdq")
}

fn by_id(id: u8) -> &'static Kernels {
    match id {
        #[cfg(target_arch = "x86_64")]
        B_SSE2 => &SSE2_KERNELS,
        #[cfg(target_arch = "x86_64")]
        B_AVX2 => &AVX2_KERNELS,
        #[cfg(target_arch = "aarch64")]
        B_NEON => &NEON_KERNELS,
        _ => &SWAR_KERNELS,
    }
}

/// The name of the kernel dispatch is currently using: `"avx2"`,
/// `"sse2"`, `"neon"` or `"swar"`. Selection happens on first use (of
/// this function or any scanner); the bench harness records it so scan
/// figures are interpretable across hosts.
pub fn backend_name() -> &'static str {
    kernels().name
}

/// Every backend this build can run on this host, widest first. The
/// parity suite iterates this list, forcing each in turn.
pub fn available_backends() -> Vec<&'static str> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_runnable() {
            out.push("avx2");
        }
        out.push("sse2");
    }
    #[cfg(target_arch = "aarch64")]
    out.push("neon");
    out.push("swar");
    out
}

/// Forces dispatch onto the named backend (`"auto"` re-runs detection).
/// Returns `false` — leaving the current selection untouched — when the
/// backend is not compiled in or not runnable on this host. A testing
/// and benchmarking hook: it swaps a process-global table, so never
/// call it concurrently with scans whose backend must stay fixed.
pub fn force_backend(name: &str) -> bool {
    if name == "auto" {
        ACTIVE.store(detect_backend(), Ordering::Relaxed);
        return true;
    }
    match backend_id(name) {
        Some(id) => {
            ACTIVE.store(id, Ordering::Relaxed);
            true
        }
        None => false,
    }
}

// --- Public entry points (probe + dispatch) ---

/// Index of the first occurrence of `a` or `b` in `haystack`.
///
/// ```
/// use tfd_value::scan::find_any2;
/// assert_eq!(find_any2(b"character data here <tag>", b'<', b'&'), Some(20));
/// assert_eq!(find_any2(b"no specials", b'<', b'&'), None);
/// ```
#[inline]
pub fn find_any2(haystack: &[u8], a: u8, b: u8) -> Option<usize> {
    // Short-hop fast path: most runs between specials are a few bytes
    // wide, and for those a bounded scalar probe (which LLVM vectorizes)
    // beats any kernel's setup. Only runs longer than the probe pay the
    // dispatch load.
    let probe = haystack.len().min(PROBE);
    if let Some(p) = haystack[..probe].iter().position(|&x| x == a || x == b) {
        return Some(p);
    }
    if probe == haystack.len() {
        return None;
    }
    (kernels().find_any2)(&haystack[probe..], a, b).map(|p| probe + p)
}

/// Index of the first occurrence of `a`, `b` or `c` in `haystack`.
///
/// ```
/// use tfd_value::scan::find_any3;
/// let hay = b"abcdefgh,ijklmnop\nq";
/// assert_eq!(find_any3(hay, b',', b'\n', b'\r'), Some(8));
/// assert_eq!(find_any3(b"no specials here", b',', b'\n', b'\r'), None);
/// ```
#[inline]
pub fn find_any3(haystack: &[u8], a: u8, b: u8, c: u8) -> Option<usize> {
    let probe = haystack.len().min(PROBE);
    if let Some(p) = haystack[..probe]
        .iter()
        .position(|&x| x == a || x == b || x == c)
    {
        return Some(p);
    }
    if probe == haystack.len() {
        return None;
    }
    (kernels().find_any3)(&haystack[probe..], a, b, c).map(|p| probe + p)
}

/// Index of the first occurrence of any of five needles — sized for the
/// JSON container scanner, whose specials are `{` `}` `[` `]` `"`.
///
/// ```
/// use tfd_value::scan::find_any5;
/// let hay = br#"some content then "a string""#;
/// assert_eq!(find_any5(hay, b'{', b'}', b'[', b']', b'"'), Some(18));
/// ```
#[inline]
pub fn find_any5(haystack: &[u8], a: u8, b: u8, c: u8, d: u8, e: u8) -> Option<usize> {
    let probe = haystack.len().min(PROBE);
    if let Some(p) = haystack[..probe]
        .iter()
        .position(|&x| x == a || x == b || x == c || x == d || x == e)
    {
        return Some(p);
    }
    if probe == haystack.len() {
        return None;
    }
    (kernels().find_any5)(&haystack[probe..], a, b, c, d, e).map(|p| probe + p)
}

/// Index of the first occurrence of `needle`.
///
/// ```
/// use tfd_value::scan::find_byte;
/// assert_eq!(find_byte(b"quoted content\" tail", b'"'), Some(14));
/// assert_eq!(find_byte(b"none", b'"'), None);
/// ```
#[inline]
pub fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    let probe = haystack.len().min(PROBE);
    if let Some(p) = haystack[..probe].iter().position(|&x| x == needle) {
        return Some(p);
    }
    if probe == haystack.len() {
        return None;
    }
    (kernels().find_byte)(&haystack[probe..], needle).map(|p| probe + p)
}

/// The byte-at-a-time loop [`find_any3`] replaced: the reference the
/// crafted-input parity test compares it against.
#[cfg(test)]
fn find_any3_naive(haystack: &[u8], a: u8, b: u8, c: u8) -> Option<usize> {
    haystack.iter().position(|&x| x == a || x == b || x == c)
}

/// The byte-at-a-time loop [`find_byte`] replaced: the reference the
/// crafted-input parity test compares it against.
#[cfg(test)]
fn find_byte_naive(haystack: &[u8], needle: u8) -> Option<usize> {
    haystack.iter().position(|&x| x == needle)
}

// --- JSON structural blocks: where do records end? ---

/// Bytes per structural block: one bit of a `u64` mask per byte.
pub const JSON_BLOCK: usize = 64;

/// Where a JSON boundary walk stands between two bytes: the state that
/// [`json_blocks`] carries from one block to the next and hands back to
/// the caller's per-byte state machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JsonWalk {
    /// Container depth of the current record; `0` is between records.
    pub depth: usize,
    /// Inside a string literal of the current record.
    pub in_string: bool,
    /// Inside a string, right after an unescaped backslash: the next
    /// byte is escaped.
    pub escaped: bool,
}

/// Walks whole [`JSON_BLOCK`]-byte blocks of `bytes` from `at`, inside
/// container records, calling `boundary` with the offset just past each
/// record that ends. Returns where it stopped, with `walk` updated to
/// the state there:
///
/// * fewer than [`JSON_BLOCK`] bytes are left;
/// * a record ended and the next byte that is not whitespace does not
///   open a container (`walk.depth == 0`; the offset is that byte's);
/// * the block at the returned offset holds a backslash outside a
///   string, where the escape carry does not match the per-byte rules.
///
/// `walk.depth` must be at least 1. The return value equals `at` only
/// when the walk declined the very first block; the caller then steps
/// that block byte by byte. Every boundary reported is one the
/// byte-stepping scanner (`tfd_json::stream`) reports for the same
/// bytes and state.
///
/// ```
/// use tfd_value::scan::{json_blocks, JsonWalk};
/// let text = br#"{"a": "}"}  [1, {"b": "\"]"}]
/// {"c": [2, 3], "pad": "................................................"}"#;
/// let mut walk = JsonWalk { depth: 1, ..JsonWalk::default() };
/// let mut ends = Vec::new();
/// let stop = json_blocks(text, 1, &mut walk, &mut |e| ends.push(e));
/// assert_eq!(ends, vec![10, 29]);
/// assert!(stop > 1 && walk.depth >= 1);
/// ```
#[inline]
pub fn json_blocks(
    bytes: &[u8],
    at: usize,
    walk: &mut JsonWalk,
    boundary: &mut dyn FnMut(usize),
) -> usize {
    (kernels().json_blocks)(bytes, at, walk, boundary)
}

/// One block's classification: bit `k` of each mask describes byte `k`.
#[derive(Debug, Clone, Copy, Default)]
struct BlockMasks {
    quote: u64,
    backslash: u64,
    /// `{` or `[`.
    open: u64,
    /// `}` or `]`.
    close: u64,
}

/// The bytes that backslashes escape, given the block's backslash bits
/// and whether its first byte is escaped by a run from the block before
/// (simdjson's branch-free odd-run detection). Returns the escaped bits
/// and whether the next block's first byte is escaped.
#[inline(always)]
fn escaped_bits(backslash: u64, carried: bool) -> (u64, bool) {
    const EVEN: u64 = 0x5555_5555_5555_5555;
    let carried = u64::from(carried);
    // A backslash escaped by the run before is not an escape itself.
    let backslash = backslash & !carried;
    let follows_escape = (backslash << 1) | carried;
    let odd_starts = backslash & !EVEN & !follows_escape;
    let (even_starts, overflow) = odd_starts.overflowing_add(backslash);
    let invert = even_starts << 1;
    ((EVEN ^ invert) & follows_escape, overflow)
}

/// Prefix-XOR by a shift cascade: bit `k` of the result is the parity
/// of bits `0..=k` of `x`.
#[inline(always)]
fn shift_prefix_xor(mut x: u64) -> u64 {
    x ^= x << 1;
    x ^= x << 2;
    x ^= x << 4;
    x ^= x << 8;
    x ^= x << 16;
    x ^= x << 32;
    x
}

/// Index of the first byte of `block[from..]` that is not JSON
/// whitespace.
#[inline(always)]
fn skip_json_ws(block: &[u8; JSON_BLOCK], from: usize) -> Option<usize> {
    block[from..]
        .iter()
        .position(|&b| !matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        .map(|p| from + p)
}

/// The structural-block walk every backend shares; `masks` and
/// `prefix_xor` are the backend's. Backends call it from functions
/// compiled with their target features, so it must inline there.
#[inline(always)]
fn json_walk(
    bytes: &[u8],
    at: usize,
    walk: &mut JsonWalk,
    boundary: &mut dyn FnMut(usize),
    masks: impl Fn(&[u8; JSON_BLOCK]) -> BlockMasks,
    prefix_xor: impl Fn(u64) -> u64,
) -> usize {
    let JsonWalk {
        mut depth,
        mut in_string,
        mut escaped,
    } = *walk;
    let mut b = at;
    let stop = loop {
        let Some(Ok(block)) = bytes
            .get(b..b + JSON_BLOCK)
            .map(<&[u8; JSON_BLOCK]>::try_from)
        else {
            break b;
        };
        if depth == 0 {
            // Between records: only whitespace, then a container, stays
            // on the block walk.
            match skip_json_ws(block, 0) {
                None => {
                    b += JSON_BLOCK;
                    continue;
                }
                Some(k) if matches!(block[k], b'{' | b'[') => {}
                Some(k) => break b + k,
            }
        }
        let m = masks(block);
        let (escaped_mask, carry) = escaped_bits(m.backslash, escaped);
        let strings = prefix_xor(m.quote & !escaped_mask) ^ if in_string { !0 } else { 0 };
        if m.backslash & !strings != 0 {
            // A backslash outside a string escapes nothing for the
            // per-byte machine, but would for the carry above.
            break b;
        }
        let opens = m.open & !strings;
        let closes = m.close & !strings;
        if (closes.count_ones() as usize) < depth {
            // No record can end in this block.
            depth += opens.count_ones() as usize;
            depth -= closes.count_ones() as usize;
        } else {
            let mut rest = opens | closes;
            let mut junk = None;
            while rest != 0 {
                let k = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if opens >> k & 1 == 1 {
                    depth += 1;
                    continue;
                }
                depth -= 1;
                if depth > 0 {
                    continue;
                }
                boundary(b + k + 1);
                match skip_json_ws(block, k + 1) {
                    // The next record opens at the next set bit, or
                    // the block ends in whitespace.
                    Some(j) if matches!(block[j], b'{' | b'[') => {}
                    None => {}
                    Some(j) => {
                        junk = Some(b + j);
                        break;
                    }
                }
            }
            if let Some(j) = junk {
                (in_string, escaped) = (false, false);
                break j;
            }
        }
        in_string = strings >> 63 == 1;
        escaped = carry;
        b += JSON_BLOCK;
    };
    *walk = JsonWalk {
        depth,
        in_string,
        escaped,
    };
    stop
}

// --- The portable SWAR kernel (PR 4), the fallback every target has ---

mod swar {
    use super::{
        json_walk, shift_prefix_xor, splat, zero_byte_mask, BlockMasks, JsonWalk, HI, JSON_BLOCK,
    };

    /// High bit set in every byte of `x` equal to `needle`. Unlike
    /// [`zero_byte_mask`], exact in every byte (no borrow runs into the
    /// byte above a match), as a whole-block bitmask needs.
    #[inline(always)]
    fn eq_bytes(x: u64, needle: u64) -> u64 {
        const LOW7: u64 = !HI;
        let x = x ^ needle;
        !(((x & LOW7) + LOW7) | x) & HI
    }

    /// Gathers the high bit of each byte into the low 8 bits.
    #[inline(always)]
    fn movemask(m: u64) -> u64 {
        (m >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
    }

    #[allow(clippy::expect_used)] // 8-byte words of a 64-byte block
    #[inline(always)]
    fn json_masks(block: &[u8; JSON_BLOCK]) -> BlockMasks {
        let (quote, backslash) = (splat(b'"'), splat(b'\\'));
        let (open, close, case) = (splat(b'{'), splat(b'}'), splat(0x20));
        let mut m = BlockMasks::default();
        for (k, word) in block.chunks_exact(8).enumerate() {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            // `[`/`]` are `{`/`}` with bit 5 clear.
            let folded = w | case;
            m.quote |= movemask(eq_bytes(w, quote)) << (8 * k);
            m.backslash |= movemask(eq_bytes(w, backslash)) << (8 * k);
            m.open |= movemask(eq_bytes(folded, open)) << (8 * k);
            m.close |= movemask(eq_bytes(folded, close)) << (8 * k);
        }
        m
    }

    pub(super) fn json_blocks(
        bytes: &[u8],
        at: usize,
        walk: &mut JsonWalk,
        boundary: &mut dyn FnMut(usize),
    ) -> usize {
        json_walk(bytes, at, walk, boundary, json_masks, shift_prefix_xor)
    }

    #[allow(clippy::expect_used)] // 8-byte window, checked by the loop bound
    pub(super) fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
        let s = splat(needle);
        let n = haystack.len();
        let mut i = 0;
        while i + 8 <= n {
            let word = u64::from_le_bytes(haystack[i..i + 8].try_into().expect("8-byte chunk"));
            let hits = zero_byte_mask(word ^ s);
            if hits != 0 {
                return Some(i + (hits.trailing_zeros() / 8) as usize);
            }
            i += 8;
        }
        haystack[i..]
            .iter()
            .position(|&x| x == needle)
            .map(|p| i + p)
    }

    #[allow(clippy::expect_used)] // 8-byte window, checked by the loop bound
    pub(super) fn find_any2(haystack: &[u8], a: u8, b: u8) -> Option<usize> {
        let (sa, sb) = (splat(a), splat(b));
        let n = haystack.len();
        let mut i = 0;
        while i + 8 <= n {
            let word = u64::from_le_bytes(haystack[i..i + 8].try_into().expect("8-byte chunk"));
            let hits = zero_byte_mask(word ^ sa) | zero_byte_mask(word ^ sb);
            if hits != 0 {
                return Some(i + (hits.trailing_zeros() / 8) as usize);
            }
            i += 8;
        }
        haystack[i..]
            .iter()
            .position(|&x| x == a || x == b)
            .map(|p| i + p)
    }

    #[allow(clippy::expect_used)] // 8-byte window, checked by the loop bound
    pub(super) fn find_any3(haystack: &[u8], a: u8, b: u8, c: u8) -> Option<usize> {
        let (sa, sb, sc) = (splat(a), splat(b), splat(c));
        let n = haystack.len();
        let mut i = 0;
        while i + 8 <= n {
            let word = u64::from_le_bytes(haystack[i..i + 8].try_into().expect("8-byte chunk"));
            let hits =
                zero_byte_mask(word ^ sa) | zero_byte_mask(word ^ sb) | zero_byte_mask(word ^ sc);
            if hits != 0 {
                return Some(i + (hits.trailing_zeros() / 8) as usize);
            }
            i += 8;
        }
        haystack[i..]
            .iter()
            .position(|&x| x == a || x == b || x == c)
            .map(|p| i + p)
    }

    #[allow(clippy::expect_used)] // 8-byte window, checked by the loop bound
    pub(super) fn find_any5(haystack: &[u8], a: u8, b: u8, c: u8, d: u8, e: u8) -> Option<usize> {
        let (sa, sb, sc, sd, se) = (splat(a), splat(b), splat(c), splat(d), splat(e));
        let n = haystack.len();
        let mut i = 0;
        while i + 8 <= n {
            let word = u64::from_le_bytes(haystack[i..i + 8].try_into().expect("8-byte chunk"));
            let hits = zero_byte_mask(word ^ sa)
                | zero_byte_mask(word ^ sb)
                | zero_byte_mask(word ^ sc)
                | zero_byte_mask(word ^ sd)
                | zero_byte_mask(word ^ se);
            if hits != 0 {
                return Some(i + (hits.trailing_zeros() / 8) as usize);
            }
            i += 8;
        }
        haystack[i..]
            .iter()
            .position(|&x| x == a || x == b || x == c || x == d || x == e)
            .map(|p| i + p)
    }
}

// --- x86-64 kernels: SSE2 (baseline) and AVX2 (runtime-detected) ---

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // vector loads via raw pointers; every block carries its proof
mod x86 {
    use super::{json_walk, shift_prefix_xor, BlockMasks, JsonWalk, JSON_BLOCK};
    use core::arch::x86_64::{
        __m128i, __m256i, _mm256_cmpeq_epi8, _mm256_loadu_si256, _mm256_movemask_epi8,
        _mm256_or_si256, _mm256_set1_epi8, _mm256_setzero_si256, _mm_clmulepi64_si128,
        _mm_cmpeq_epi8, _mm_cvtsi128_si64, _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128,
        _mm_set1_epi8, _mm_set_epi64x, _mm_setzero_si128,
    };

    /// The shared kernel skeleton: full-width unaligned loads over the
    /// body, then one *overlapped* load covering the final `W` bytes
    /// (its low lanes re-scan bytes already proven needle-free, so the
    /// mask is shifted to discard them). `$scalar` is the fallback for
    /// haystacks shorter than one vector.
    macro_rules! simd_body {
        ($h:ident, $w:expr, $setzero:expr, $set1:expr, $loadu:expr, $cmpeq:expr, $or:expr,
         $movemask:expr, ($($n:ident),+)) => {{
            let len = $h.len();
            if len < $w {
                return $h.iter().position(|&x| false $(|| x == $n)+);
            }
            $(let $n = $set1($n as i8);)+
            let ptr = $h.as_ptr();
            let mut i = 0usize;
            while i + $w <= len {
                // SAFETY: `i + $w <= len`, so the $w-byte unaligned load
                // stays inside the haystack.
                let v = unsafe { $loadu(ptr.add(i).cast()) };
                let mut hits = $setzero();
                $(hits = $or(hits, $cmpeq(v, $n));)+
                let m = $movemask(hits) as u32;
                if m != 0 {
                    return Some(i + m.trailing_zeros() as usize);
                }
                i += $w;
            }
            if i < len {
                // Overlapped tail: load the last $w bytes. `len >= $w`
                // held above, so `j` does not underflow.
                let j = len - $w;
                // SAFETY: `j + $w == len`, so the load stays in bounds.
                let v = unsafe { $loadu(ptr.add(j).cast()) };
                let mut hits = $setzero();
                $(hits = $or(hits, $cmpeq(v, $n));)+
                // Bytes below `i` were already scanned clean; shift
                // their lanes off so indices stay first-match-correct.
                let m = ($movemask(hits) as u32) >> (i - j);
                if m != 0 {
                    return Some(i + m.trailing_zeros() as usize);
                }
            }
            None
        }};
    }

    macro_rules! sse2_body {
        ($h:ident, ($($n:ident),+)) => {
            simd_body!($h, 16, _mm_setzero_si128, _mm_set1_epi8,
                |p: *const __m128i| _mm_loadu_si128(p), _mm_cmpeq_epi8, _mm_or_si128,
                _mm_movemask_epi8, ($($n),+))
        };
    }

    macro_rules! avx2_body {
        ($h:ident, ($($n:ident),+)) => {
            simd_body!($h, 32, _mm256_setzero_si256, _mm256_set1_epi8,
                |p: *const __m256i| _mm256_loadu_si256(p), _mm256_cmpeq_epi8, _mm256_or_si256,
                _mm256_movemask_epi8, ($($n),+))
        };
    }

    // The compiler only treats vector intrinsics as safe inside a
    // function that lists the feature in `#[target_feature]`, so even
    // the always-available SSE2 kernels get the impl/wrapper split.
    // SSE2 is part of the x86-64 baseline ABI, which is what makes the
    // wrappers' unsafe calls trivially sound.

    #[target_feature(enable = "sse2")]
    unsafe fn sse2_find_byte_impl(h: &[u8], a: u8) -> Option<usize> {
        sse2_body!(h, (a))
    }

    #[target_feature(enable = "sse2")]
    unsafe fn sse2_find_any2_impl(h: &[u8], a: u8, b: u8) -> Option<usize> {
        sse2_body!(h, (a, b))
    }

    #[target_feature(enable = "sse2")]
    unsafe fn sse2_find_any3_impl(h: &[u8], a: u8, b: u8, c: u8) -> Option<usize> {
        sse2_body!(h, (a, b, c))
    }

    #[target_feature(enable = "sse2")]
    unsafe fn sse2_find_any5_impl(h: &[u8], a: u8, b: u8, c: u8, d: u8, e: u8) -> Option<usize> {
        sse2_body!(h, (a, b, c, d, e))
    }

    pub(super) fn sse2_find_byte(h: &[u8], a: u8) -> Option<usize> {
        // SAFETY: SSE2 is unconditionally available on x86-64.
        unsafe { sse2_find_byte_impl(h, a) }
    }

    pub(super) fn sse2_find_any2(h: &[u8], a: u8, b: u8) -> Option<usize> {
        // SAFETY: as `sse2_find_byte`.
        unsafe { sse2_find_any2_impl(h, a, b) }
    }

    pub(super) fn sse2_find_any3(h: &[u8], a: u8, b: u8, c: u8) -> Option<usize> {
        // SAFETY: as `sse2_find_byte`.
        unsafe { sse2_find_any3_impl(h, a, b, c) }
    }

    pub(super) fn sse2_find_any5(h: &[u8], a: u8, b: u8, c: u8, d: u8, e: u8) -> Option<usize> {
        // SAFETY: as `sse2_find_byte`.
        unsafe { sse2_find_any5_impl(h, a, b, c, d, e) }
    }

    // AVX2 kernels compile with the feature enabled and are only ever
    // installed in the dispatch table after `is_x86_feature_detected!`
    // confirms the host supports it (see `avx2_runnable`).

    #[target_feature(enable = "avx2")]
    unsafe fn avx2_find_byte_impl(h: &[u8], a: u8) -> Option<usize> {
        avx2_body!(h, (a))
    }

    #[target_feature(enable = "avx2")]
    unsafe fn avx2_find_any2_impl(h: &[u8], a: u8, b: u8) -> Option<usize> {
        avx2_body!(h, (a, b))
    }

    #[target_feature(enable = "avx2")]
    unsafe fn avx2_find_any3_impl(h: &[u8], a: u8, b: u8, c: u8) -> Option<usize> {
        avx2_body!(h, (a, b, c))
    }

    #[target_feature(enable = "avx2")]
    unsafe fn avx2_find_any5_impl(h: &[u8], a: u8, b: u8, c: u8, d: u8, e: u8) -> Option<usize> {
        avx2_body!(h, (a, b, c, d, e))
    }

    pub(super) fn avx2_find_byte(h: &[u8], a: u8) -> Option<usize> {
        // SAFETY: reachable only through AVX2_KERNELS, which dispatch
        // installs only after runtime detection confirms AVX2.
        unsafe { avx2_find_byte_impl(h, a) }
    }

    pub(super) fn avx2_find_any2(h: &[u8], a: u8, b: u8) -> Option<usize> {
        // SAFETY: as `avx2_find_byte`.
        unsafe { avx2_find_any2_impl(h, a, b) }
    }

    pub(super) fn avx2_find_any3(h: &[u8], a: u8, b: u8, c: u8) -> Option<usize> {
        // SAFETY: as `avx2_find_byte`.
        unsafe { avx2_find_any3_impl(h, a, b, c) }
    }

    pub(super) fn avx2_find_any5(h: &[u8], a: u8, b: u8, c: u8, d: u8, e: u8) -> Option<usize> {
        // SAFETY: as `avx2_find_byte`.
        unsafe { avx2_find_any5_impl(h, a, b, c, d, e) }
    }

    // The JSON structural-block walk. The classifiers are
    // `#[inline(always)]` without target features of their own; they
    // inline into the `#[target_feature]` walks below, which is where
    // their intrinsics compile (the memchr pattern).

    /// Classifies a 64-byte block 16 bytes at a time.
    ///
    /// # Safety
    ///
    /// The caller runs with SSE2 enabled (always so on x86-64).
    #[inline(always)]
    unsafe fn sse2_json_masks(block: &[u8; JSON_BLOCK]) -> BlockMasks {
        let p = block.as_ptr();
        let (quote, backslash) = (_mm_set1_epi8(b'"' as i8), _mm_set1_epi8(b'\\' as i8));
        let (open, close) = (_mm_set1_epi8(b'{' as i8), _mm_set1_epi8(b'}' as i8));
        let case = _mm_set1_epi8(0x20);
        let mut m = BlockMasks::default();
        for k in 0..JSON_BLOCK / 16 {
            // SAFETY: `16 * k + 16 <= 64`, inside the block.
            let v = unsafe { _mm_loadu_si128(p.add(16 * k).cast()) };
            // `[`/`]` are `{`/`}` with bit 5 clear.
            let folded = _mm_or_si128(v, case);
            let bits = |x: __m128i| u64::from(_mm_movemask_epi8(x) as u16) << (16 * k);
            m.quote |= bits(_mm_cmpeq_epi8(v, quote));
            m.backslash |= bits(_mm_cmpeq_epi8(v, backslash));
            m.open |= bits(_mm_cmpeq_epi8(folded, open));
            m.close |= bits(_mm_cmpeq_epi8(folded, close));
        }
        m
    }

    /// Classifies a 64-byte block 32 bytes at a time.
    ///
    /// # Safety
    ///
    /// The caller runs with AVX2 enabled.
    #[inline(always)]
    unsafe fn avx2_json_masks(block: &[u8; JSON_BLOCK]) -> BlockMasks {
        let p = block.as_ptr();
        let (quote, backslash) = (_mm256_set1_epi8(b'"' as i8), _mm256_set1_epi8(b'\\' as i8));
        let (open, close) = (_mm256_set1_epi8(b'{' as i8), _mm256_set1_epi8(b'}' as i8));
        let case = _mm256_set1_epi8(0x20);
        let mut m = BlockMasks::default();
        for k in 0..JSON_BLOCK / 32 {
            // SAFETY: `32 * k + 32 <= 64`, inside the block.
            let v = unsafe { _mm256_loadu_si256(p.add(32 * k).cast()) };
            let folded = _mm256_or_si256(v, case);
            let bits = |x: __m256i| u64::from(_mm256_movemask_epi8(x) as u32) << (32 * k);
            m.quote |= bits(_mm256_cmpeq_epi8(v, quote));
            m.backslash |= bits(_mm256_cmpeq_epi8(v, backslash));
            m.open |= bits(_mm256_cmpeq_epi8(folded, open));
            m.close |= bits(_mm256_cmpeq_epi8(folded, close));
        }
        m
    }

    /// Prefix-XOR as one carry-less multiply by all ones.
    ///
    /// # Safety
    ///
    /// The caller runs with PCLMULQDQ enabled.
    #[inline(always)]
    unsafe fn clmul_prefix_xor(x: u64) -> u64 {
        let product = _mm_clmulepi64_si128(_mm_set_epi64x(0, x as i64), _mm_set1_epi8(-1), 0);
        _mm_cvtsi128_si64(product) as u64
    }

    /// # Safety
    ///
    /// The host supports SSE2 (every x86-64 does).
    #[target_feature(enable = "sse2")]
    unsafe fn sse2_json_blocks_impl(
        bytes: &[u8],
        at: usize,
        walk: &mut JsonWalk,
        boundary: &mut dyn FnMut(usize),
    ) -> usize {
        json_walk(
            bytes,
            at,
            walk,
            boundary,
            // SAFETY: this function runs with SSE2 enabled.
            |block| unsafe { sse2_json_masks(block) },
            shift_prefix_xor,
        )
    }

    /// # Safety
    ///
    /// The host supports AVX2 and PCLMULQDQ.
    #[target_feature(enable = "avx2,pclmulqdq")]
    unsafe fn avx2_json_blocks_impl(
        bytes: &[u8],
        at: usize,
        walk: &mut JsonWalk,
        boundary: &mut dyn FnMut(usize),
    ) -> usize {
        json_walk(
            bytes,
            at,
            walk,
            boundary,
            // SAFETY: this function runs with AVX2 and PCLMULQDQ enabled.
            |block| unsafe { avx2_json_masks(block) },
            // SAFETY: as above; PCLMULQDQ is enabled here.
            |x| unsafe { clmul_prefix_xor(x) },
        )
    }

    pub(super) fn sse2_json_blocks(
        bytes: &[u8],
        at: usize,
        walk: &mut JsonWalk,
        boundary: &mut dyn FnMut(usize),
    ) -> usize {
        // SAFETY: SSE2 is unconditionally available on x86-64.
        unsafe { sse2_json_blocks_impl(bytes, at, walk, boundary) }
    }

    pub(super) fn avx2_json_blocks(
        bytes: &[u8],
        at: usize,
        walk: &mut JsonWalk,
        boundary: &mut dyn FnMut(usize),
    ) -> usize {
        // SAFETY: reachable only through AVX2_KERNELS, which dispatch
        // installs only after runtime detection confirms AVX2 and
        // PCLMULQDQ (`avx2_runnable`).
        unsafe { avx2_json_blocks_impl(bytes, at, walk, boundary) }
    }
}

// --- aarch64 NEON kernels (baseline on aarch64, like SSE2 on x86-64) ---

#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)] // vector loads via raw pointers; every block carries its proof
mod neon {
    use core::arch::aarch64::{vceqq_u8, vdupq_n_u8, vld1q_u8, vmaxvq_u8, vorrq_u8};

    /// NEON has no movemask: the kernel tests each 16-byte block with
    /// `vmaxvq_u8` (any lane non-zero) and re-scans the hit block with
    /// the scalar loop to recover the exact index — the block is tiny
    /// and hits are rare in long runs, so the rescan is in the noise.
    macro_rules! neon_body {
        ($h:ident, ($($n:ident),+)) => {{
            let len = $h.len();
            if len < 16 {
                return $h.iter().position(|&x| false $(|| x == $n)+);
            }
            $(let $n = ($n, vdupq_n_u8($n));)+
            let ptr = $h.as_ptr();
            let mut i = 0usize;
            while i + 16 <= len {
                // SAFETY: `i + 16 <= len`, so the 16-byte load stays
                // inside the haystack.
                let v = unsafe { vld1q_u8(ptr.add(i)) };
                let mut hits = vdupq_n_u8(0);
                $(hits = vorrq_u8(hits, vceqq_u8(v, $n.1));)+
                if vmaxvq_u8(hits) != 0 {
                    return $h[i..i + 16]
                        .iter()
                        .position(|&x| false $(|| x == $n.0)+)
                        .map(|p| i + p);
                }
                i += 16;
            }
            $h[i..]
                .iter()
                .position(|&x| false $(|| x == $n.0)+)
                .map(|p| i + p)
        }};
    }

    pub(super) fn find_byte(h: &[u8], a: u8) -> Option<usize> {
        neon_body!(h, (a))
    }

    pub(super) fn find_any2(h: &[u8], a: u8, b: u8) -> Option<usize> {
        neon_body!(h, (a, b))
    }

    pub(super) fn find_any3(h: &[u8], a: u8, b: u8, c: u8) -> Option<usize> {
        neon_body!(h, (a, b, c))
    }

    pub(super) fn find_any5(h: &[u8], a: u8, b: u8, c: u8, d: u8, e: u8) -> Option<usize> {
        neon_body!(h, (a, b, c, d, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agrees_with_naive_on_crafted_inputs() {
        let cases: &[&[u8]] = &[
            b"",
            b"a",
            b"abcdefg",   // shorter than a word
            b"abcdefgh",  // exactly one word
            b"abcdefghi", // word + tail
            b",starts",
            b"ends with,",
            b"mid,dle and \n more, stuff \r here",
            b"\r\n\r\n",
            b"xxxxxxxx,yyyyyyyy", // special exactly at a word boundary
            b"xxxxxxx,yyyyyyyy",  // special one before a word boundary
            "žluťoučký,kůň".as_bytes(),
        ];
        for &hay in cases {
            assert_eq!(
                find_any3(hay, b',', b'\n', b'\r'),
                find_any3_naive(hay, b',', b'\n', b'\r'),
                "{:?}",
                String::from_utf8_lossy(hay)
            );
            assert_eq!(
                find_any2(hay, b',', b'\n'),
                hay.iter().position(|&x| x == b',' || x == b'\n'),
                "{:?}",
                String::from_utf8_lossy(hay)
            );
            assert_eq!(
                find_byte(hay, b','),
                find_byte_naive(hay, b','),
                "{:?}",
                String::from_utf8_lossy(hay)
            );
        }
    }

    #[test]
    fn agrees_with_naive_exhaustively_on_positions() {
        // A special byte planted at every position of a 100-byte buffer,
        // for every needle of every arity — catches any word-boundary,
        // vector-tail or trailing-zeros math error. 100 bytes covers
        // the probe, several AVX2 vectors and a ragged overlapped tail.
        for pos in 0..100usize {
            for needle in [b',', b'\n', b'\r'] {
                let mut hay = vec![b'x'; 100];
                hay[pos] = needle;
                assert_eq!(find_any3(&hay, b',', b'\n', b'\r'), Some(pos), "pos {pos}");
                assert_eq!(find_byte(&hay, needle), Some(pos), "pos {pos}");
            }
            for needle in [b'<', b'&'] {
                let mut hay = vec![b'x'; 100];
                hay[pos] = needle;
                assert_eq!(find_any2(&hay, b'<', b'&'), Some(pos), "pos {pos}");
            }
            for needle in [b'{', b'}', b'[', b']', b'"'] {
                let mut hay = vec![b'x'; 100];
                hay[pos] = needle;
                assert_eq!(
                    find_any5(&hay, b'{', b'}', b'[', b']', b'"'),
                    Some(pos),
                    "pos {pos}"
                );
            }
        }
    }

    #[test]
    fn every_compiled_kernel_agrees_with_naive() {
        // Direct kernel-table parity (no probe, no dispatch): plant a
        // needle at every position, at many lengths around the vector
        // widths. The process-global force_backend hook is deliberately
        // NOT used here (unit tests run concurrently in one process);
        // the forced-dispatch walk lives in tests/scan_backends.rs.
        let mut tables: Vec<&Kernels> = vec![&SWAR_KERNELS];
        #[cfg(target_arch = "x86_64")]
        {
            tables.push(&SSE2_KERNELS);
            if avx2_runnable() {
                tables.push(&AVX2_KERNELS);
            }
        }
        #[cfg(target_arch = "aarch64")]
        tables.push(&NEON_KERNELS);
        for k in tables {
            for len in [0usize, 1, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100] {
                for pos in 0..len {
                    let mut hay = vec![b'x'; len];
                    hay[pos] = b',';
                    assert_eq!((k.find_byte)(&hay, b','), Some(pos), "{} len {len}", k.name);
                    assert_eq!(
                        (k.find_any2)(&hay, b',', b'\n'),
                        Some(pos),
                        "{} len {len}",
                        k.name
                    );
                    assert_eq!(
                        (k.find_any3)(&hay, b',', b'\n', b'\r'),
                        Some(pos),
                        "{} len {len}",
                        k.name
                    );
                    assert_eq!(
                        (k.find_any5)(&hay, b',', b'{', b'}', b'[', b']'),
                        Some(pos),
                        "{} len {len}",
                        k.name
                    );
                }
                let clean = vec![b'x'; len];
                assert_eq!((k.find_byte)(&clean, b','), None, "{} len {len}", k.name);
                assert_eq!(
                    (k.find_any5)(&clean, b',', b'{', b'}', b'[', b']'),
                    None,
                    "{} len {len}",
                    k.name
                );
            }
            // Duplicate needles and late-vs-early ties.
            let hay = b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa]aaaa}";
            assert_eq!(
                (k.find_any5)(hay, b'}', b']', b']', b'}', b']'),
                Some(38),
                "{}",
                k.name
            );
        }
    }

    /// The byte-at-a-time escape rule: a backslash not itself escaped
    /// escapes the next byte.
    fn naive_escaped(backslash: u64, carried: bool) -> (u64, bool) {
        let (mut out, mut next) = (0u64, carried);
        for k in 0..64 {
            if next {
                out |= 1 << k;
                next = false;
            } else if backslash >> k & 1 == 1 {
                next = true;
            }
        }
        (out, next)
    }

    #[test]
    fn escaped_bits_match_the_byte_rule() {
        let mut patterns = vec![0u64, !0, 1 << 63, 1, 0x5555_5555_5555_5555];
        // Every run of 1..=12 backslashes at every start, runs ending at
        // bits 62, 63 and past the block included.
        for len in 1..=12u32 {
            for start in 0..64u32 {
                patterns.push((((1u128 << len) - 1) << start) as u64);
            }
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            patterns.push(x);
            patterns.push(x & (x >> 1)); // longer runs
        }
        for &p in &patterns {
            for carried in [false, true] {
                assert_eq!(
                    escaped_bits(p, carried),
                    naive_escaped(p, carried),
                    "{p:#066b} carried {carried}"
                );
            }
        }
    }

    #[test]
    fn shift_prefix_xor_is_the_running_parity() {
        for x in [
            0u64,
            1,
            !0,
            1 << 63,
            0x8000_0000_0000_0001,
            0x1234_5678_9ABC_DEF0,
        ] {
            let mut want = 0u64;
            let mut parity = 0u64;
            for k in 0..64 {
                parity ^= x >> k & 1;
                want |= parity << k;
            }
            assert_eq!(shift_prefix_xor(x), want, "{x:#x}");
        }
    }

    /// The record ends a byte-at-a-time walk over container records
    /// separated by whitespace reports from `at` up to `stop`, and its
    /// state there.
    fn naive_walk(text: &[u8], at: usize, stop: usize, start: JsonWalk) -> (Vec<usize>, JsonWalk) {
        let mut w = start;
        let mut ends = Vec::new();
        for (i, &b) in text.iter().enumerate().take(stop).skip(at) {
            if w.in_string {
                if w.escaped {
                    w.escaped = false;
                } else if b == b'\\' {
                    w.escaped = true;
                } else if b == b'"' {
                    w.in_string = false;
                }
            } else if w.depth == 0 {
                if matches!(b, b'{' | b'[') {
                    w.depth = 1;
                }
            } else {
                match b {
                    b'"' => w.in_string = true,
                    b'{' | b'[' => w.depth += 1,
                    b'}' | b']' => {
                        w.depth -= 1;
                        if w.depth == 0 {
                            ends.push(i + 1);
                        }
                    }
                    _ => {}
                }
            }
        }
        (ends, w)
    }

    #[test]
    fn every_compiled_json_walk_agrees_with_a_byte_walk() {
        // Container records only (no backslash outside a string, no
        // scalar between records), so the walk never stops early and
        // every table must follow the byte walk to its stop.
        let mut tables: Vec<&Kernels> = vec![&SWAR_KERNELS];
        #[cfg(target_arch = "x86_64")]
        {
            tables.push(&SSE2_KERNELS);
            if avx2_runnable() {
                tables.push(&AVX2_KERNELS);
            }
        }
        let mut texts = Vec::new();
        for lead in 0..70 {
            let pad = "p".repeat(lead);
            for run in 0..10 {
                let slashes = "\\".repeat(run);
                let close = if run % 2 == 1 { "\"" } else { "" };
                texts.push(format!(
                    "{{\"{pad}\": \"{slashes}\"{close}, \"b\": [\"]}}\", {{}}]}}\n[{pad}] {{\"č\": \"{{\"}} \
                     [\"{tail}\"]",
                    tail = "t".repeat(64)
                ));
            }
        }
        texts.push(format!("{}{}", "[".repeat(200), "]".repeat(200)));
        for k in tables {
            for text in &texts {
                let bytes = text.as_bytes();
                let start = JsonWalk {
                    depth: 1,
                    ..JsonWalk::default()
                };
                let mut walk = start;
                let mut ends = Vec::new();
                let stop = (k.json_blocks)(bytes, 1, &mut walk, &mut |e| ends.push(e));
                assert!(
                    stop > 1 && bytes.len() - stop < JSON_BLOCK,
                    "{} {text}",
                    k.name
                );
                assert_eq!(
                    (ends, walk),
                    naive_walk(bytes, 1, stop, start),
                    "{} on {text}",
                    k.name
                );
            }
        }
    }

    #[test]
    fn backend_introspection_is_coherent() {
        let available = available_backends();
        assert!(available.contains(&"swar"));
        let active = backend_name();
        assert!(available.contains(&active), "{active} not in {available:?}");
        #[cfg(target_arch = "x86_64")]
        assert!(available.contains(&"sse2"));
        // Unknown backends are refused without disturbing dispatch.
        assert!(!force_backend("vliw"));
        assert_eq!(backend_name(), active);
    }

    #[test]
    fn first_of_several_specials_wins() {
        let hay = b"aaaa\raa,aaaa\naaaa";
        assert_eq!(find_any3(hay, b',', b'\n', b'\r'), Some(4));
        let hay = b"aaaaaaaaaa,a\ra";
        assert_eq!(find_any3(hay, b',', b'\n', b'\r'), Some(10));
        let hay = b"aaaaaaaaaaaaaaaaaaaaaa]aaaa}";
        assert_eq!(find_any5(hay, b'{', b'}', b'[', b']', b'"'), Some(22));
        let hay = b"aaaaaaaaaaaaaaaaaaaaaa&aaa<";
        assert_eq!(find_any2(hay, b'<', b'&'), Some(22));
    }

    #[test]
    fn high_bit_bytes_do_not_false_positive() {
        // 0x80/0xFF bytes are where naive SWAR masks — and signed
        // vector compares — go wrong.
        let hay = [0x80u8, 0xFF, 0xFE, 0x80, 0xFF, 0xFE, 0x80, 0xFF, b','];
        assert_eq!(find_any3(&hay, b',', b'\n', b'\r'), Some(8));
        assert_eq!(find_byte(&hay, b','), Some(8));
        assert_eq!(find_byte(&hay, 0xFF), Some(1));
        assert_eq!(find_any2(&hay, b',', b'\n'), Some(8));
        assert_eq!(find_any5(&hay, b',', b'{', b'}', b'[', b']'), Some(8));
        // The same past the probe, where the kernels take over.
        let mut long = vec![0xFFu8; 80];
        long[77] = b',';
        assert_eq!(find_any3(&long, b',', b'\n', b'\r'), Some(77));
        assert_eq!(find_byte(&long, 0xFF), Some(0));
    }

    #[test]
    fn find_any5_no_match_and_tails() {
        assert_eq!(find_any5(b"", b'{', b'}', b'[', b']', b'"'), None);
        let long = vec![b'x'; 100];
        assert_eq!(find_any5(&long, b'{', b'}', b'[', b']', b'"'), None);
        assert_eq!(find_any2(&long, b'<', b'&'), None);
    }
}

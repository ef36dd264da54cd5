//! # pcm-ecc — error-correcting codes for memory lines
//!
//! The "strong ECC + lightweight error detection" substrate of the
//! HPCA 2012 scrub-mechanisms reproduction:
//!
//! * bit-exact codecs — [`BchCode`] (GF(2^m) arithmetic, generator
//!   construction from minimal polynomials, Berlekamp–Massey + Chien
//!   decoding) and [`Secded72`]/[`SecdedLine`] (extended Hamming, the
//!   DRAM-heritage baseline);
//! * the statistical [`CodeSpec`] layer the memory simulator uses on its
//!   hot path (count-level decode semantics, validated against the
//!   bit-exact codecs);
//! * lightweight detection — syndrome-only probes
//!   ([`LineCode::syndromes_clean`]) whose cost is a read plus a syndrome
//!   check, with no write-back.
//!
//! # Quick start
//!
//! ```
//! use pcm_ecc::{BchCode, BitBuf, DecodeOutcome, LineCode};
//!
//! let code = BchCode::new(10, 4, 512); // BCH-4 over a 64-byte line
//! let data = BitBuf::zeros(512);
//! let mut cw = code.encode(&data);
//! cw.flip(3);
//! cw.flip(77);
//! cw.flip(401);
//! assert_eq!(code.decode(&mut cw), DecodeOutcome::Corrected { bits: 3 });
//! ```

mod bch;
mod bits;
mod code;
mod crc;
mod gf;
mod hamming;
mod poly;
mod rs;

pub use bch::BchCode;
pub use bits::BitBuf;
pub use code::{
    standard_code_ladder, symbol_occupancy_pmf, ClassifyOutcome, CodeSpec, CorrectionSemantics,
    DecodeOutcome, LineCode, LINE_DATA_BITS,
};
pub use crc::Crc32;
pub use gf::GfTable;
pub use hamming::{Secded72, SecdedLine};
pub use poly::{BinPoly, GfPoly};
pub use rs::RsCode;

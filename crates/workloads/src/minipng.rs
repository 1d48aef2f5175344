//! `minipng` — a PNG-flavoured parser with libpng's Table IV CVEs planted.
//!
//! The paper's TaintClass case study (Section V-C, Table IV) analyzes 35
//! CVE-based attacks against libpng and checks that TaintClass discovers
//! every object the exploits abuse. This module is the reproduction's
//! libpng: a chunked image parser with **six deliberately planted
//! vulnerabilities**, each gated behind the same kind of malformed input
//! that triggered the original CVE:
//!
//! | CVE id         | original bug                            | mini trigger |
//! |----------------|------------------------------------------|--------------|
//! | CVE-2016-10087 | NULL-pointer dereference (`png_set_text_2`) | `Z` chunk before any `H` header |
//! | CVE-2015-8126  | palette heap overflow (`png_set_PLTE`)   | `P` chunk with > 16 entries |
//! | CVE-2015-7981  | out-of-bounds read (`png_convert_to_rfc1123`) | `M` chunk with a large "extra" count |
//! | CVE-2015-0973  | IDAT heap overflow (`png_read_IDAT_data`) | `O` chunk longer than the row buffer |
//! | CVE-2013-7353  | integer overflow → short alloc (`png_calloc`) | `H` header whose `width·depth` exceeds 255, then `R` |
//! | CVE-2011-3048  | text-chunk heap overflow (`png_set_text`) | `T` chunk longer than 32 bytes |
//!
//! The wire format is `0x89` followed by chunks `[type:1][len:2 LE]
//! [payload:len]`, ended by `E`. The eight tainted classes of Table I
//! (`png_struct_def`, `png_info_def`, `png_color`, `png_color16_struct`,
//! `png_text_struct`, `png_time_struct`, `png_xy`, `png_unknown_chunk`)
//! are all reachable from a well-formed file.
//!
//! Exploit-relevant heap adjacency is deterministic: every raw buffer a
//! vulnerability overflows is immediately followed by the object the
//! exploit targets (palette buffer → `png_struct_def` with its
//! `row_fn` function pointer; row buffer → a `png_unknown_chunk` victim;
//! text buffer → `png_text_struct`; the tIME scratch buffer → a
//! `png_color16_struct` that the OOB read leaks).

use polar_classinfo::ClassId;
use polar_ir::builder::ModuleBuilder;
use polar_ir::{BinOp, BlockId, CmpOp, Module};

use crate::util::{begin_for, end_for};
use crate::Workload;

/// The eight input-tainted libpng classes (Table I).
pub const TAINTED_CLASSES: [&str; 8] = [
    "png_struct_def", "png_info_def", "png_color", "png_color16_struct",
    "png_text_struct", "png_time_struct", "png_xy", "png_unknown_chunk",
];

/// Field index of `png_struct_def.row_fn` — the hijack target.
pub const ROW_FN_FIELD: u16 = 5;
/// Natural byte offset of `row_fn` inside `png_struct_def` (what an
/// attacker reads out of the public binary).
pub const ROW_FN_NATURAL_OFFSET: u64 = 24;
/// The value the canned exploits try to plant in `row_fn`.
pub const HIJACK_VALUE: u64 = 0x4141_4141_4141_4141;
/// Size of the palette buffer (entries beyond 16 overflow).
pub const PALETTE_BYTES: u64 = 48;
/// Size class of the palette buffer's heap block.
pub const PALETTE_BLOCK: u64 = 64;
/// Size of the text scratch buffer (CVE-2011-3048 overflows it).
pub const TEXT_BUF_BYTES: u64 = 32;
/// Secret value parked in the `png_color16_struct` that CVE-2015-7981's
/// OOB read can leak.
pub const COLOR16_SECRET: u64 = 0x5EC2;

/// Classes (by id) each planted CVE's exploit actually abuses — the
/// ground truth column of Table IV.
#[derive(Debug, Clone)]
pub struct CveInfo {
    /// CVE identifier, e.g. `"CVE-2015-8126"`.
    pub id: &'static str,
    /// Short description of the bug class.
    pub kind: &'static str,
    /// Names of the exploit-related classes (Table IV's right column).
    pub exploit_classes: &'static [&'static str],
}

/// The six planted CVEs in Table IV order.
pub fn cve_catalog() -> Vec<CveInfo> {
    vec![
        CveInfo {
            id: "CVE-2016-10087",
            kind: "null pointer dereference",
            exploit_classes: &["png_info_def", "png_struct_def"],
        },
        CveInfo {
            id: "CVE-2015-8126",
            kind: "heap overflow",
            exploit_classes: &["png_info_def", "png_struct_def", "png_color"],
        },
        CveInfo {
            id: "CVE-2015-7981",
            kind: "out of bounds read",
            exploit_classes: &["png_struct_def", "png_time_struct"],
        },
        CveInfo {
            id: "CVE-2015-0973",
            kind: "heap overflow",
            exploit_classes: &["png_struct_def", "png_unknown_chunk"],
        },
        CveInfo {
            id: "CVE-2013-7353",
            kind: "integer overflow",
            exploit_classes: &["png_struct_def", "png_info_def", "png_unknown_chunk"],
        },
        CveInfo {
            id: "CVE-2011-3048",
            kind: "heap overflow",
            exploit_classes: &["png_struct_def", "png_info_def", "png_text_struct"],
        },
    ]
}

/// Handle to the built parser: the module plus the class ids the attack
/// harness needs to interrogate runtime metadata.
#[derive(Debug)]
pub struct MiniPng {
    /// The parser program.
    pub module: Module,
    /// `png_struct_def`'s class id.
    pub png_struct: ClassId,
    /// All eight tainted class ids, in [`TAINTED_CLASSES`] order.
    pub classes: Vec<ClassId>,
}

/// Build the parser.
pub fn build() -> MiniPng {
    let mut mb = ModuleBuilder::new("minipng");
    let ids = mb
        .add_classes_src(
            "class png_struct_def {
                 width: i32, height: i32, bit_depth: i8,
                 rowbytes: i32, true_rowbytes: i32,
                 row_fn: fnptr, crc: i32, flags: i32,
             }
             class png_info_def {
                 width: i32, height: i32, valid: i32, row_buf: ptr, num_text: i32,
             }
             class png_color { index: i8, count: i32 }
             class png_color16_struct {
                 index: i8, red: i16, green: i16, blue: i16, gray: i16,
             }
             class png_text_struct {
                 compression: i32, key: ptr, text: ptr, text_length: i64,
             }
             class png_time_struct {
                 year: i16, month: i8, day: i8, hour: i8, minute: i8, second: i8,
             }
             class png_xy { whitex: i32, whitey: i32 }
             class png_unknown_chunk { name: bytes[5], data: ptr, size: i64 }
             class png_opts { flags: i64 }",
        )
        .expect("class source parses");
    let (png_struct, info_c, color_c, color16_c, text_c, time_c, xy_c, unk_c, opts_c) = (
        ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6], ids[7], ids[8],
    );

    let mut f = mb.function("main", 0);
    let bb = f.entry_block();

    // ---- setup: buffers and their adjacent victim objects -------------
    let palette_buf = f.alloc_buf_bytes(bb, PALETTE_BYTES);
    let png = f.alloc_obj(bb, png_struct); // adjacent to palette_buf
    let info = f.alloc_obj(bb, info_c);
    let text_buf = f.alloc_buf_bytes(bb, TEXT_BUF_BYTES);
    let text_obj = f.alloc_obj(bb, text_c); // adjacent to text_buf
    let time_str = f.alloc_buf_bytes(bb, 8);
    let color16 = f.alloc_obj(bb, color16_c); // adjacent to time_str
    let time_obj = f.alloc_obj(bb, time_c);
    let xy = f.alloc_obj(bb, xy_c);
    let color = f.alloc_obj(bb, color_c);
    let opts = f.alloc_obj(bb, opts_c);

    // Benign initial values.
    let init_fn = f.const_(bb, 0x1000); // legitimate row_fn target
    let row_fn_fld = f.gep(bb, png, png_struct, ROW_FN_FIELD);
    f.store(bb, row_fn_fld, init_fn, 8);
    let secret = f.const_(bb, COLOR16_SECRET);
    let red_fld = f.gep(bb, color16, color16_c, 1);
    f.store(bb, red_fld, secret, 2);
    let k0 = f.const_(bb, 0);
    let opts_fld = f.gep(bb, opts, opts_c, 0);
    f.store(bb, opts_fld, k0, 8);

    // Parser state registers.
    let pos = f.const_(bb, 1); // skip the 0x89 signature
    let checksum = f.const_(bb, 0);
    let row_victim = f.const_(bb, 0); // png_unknown_chunk planted by `H`
    let len = f.input_len(bb);

    // ---- chunk loop ----------------------------------------------------
    let head = f.block();
    let body = f.block();
    let done = f.block();
    let adv = f.block();
    f.jmp(bb, head);
    let more = f.cmp(head, CmpOp::Lt, pos, len);
    f.br(head, more, body, done);

    let ty = f.input_byte(body, pos);
    let p1 = f.bini(body, BinOp::Add, pos, 1);
    let lo = f.input_byte(body, p1);
    let p2 = f.bini(body, BinOp::Add, pos, 2);
    let hi = f.input_byte(body, p2);
    let hi8 = f.bini(body, BinOp::Shl, hi, 8);
    let clen = f.bin(body, BinOp::Or, lo, hi8);
    let data = f.bini(body, BinOp::Add, pos, 3);

    // Dispatch helper: creates the comparison chain.
    let mut cur = body;
    let mut arm = |f: &mut polar_ir::builder::FunctionBuilder, code: u8| -> BlockId {
        let hit = f.block();
        let next = f.block();
        let is = f.cmpi(cur, CmpOp::Eq, ty, code as u64);
        f.br(cur, is, hit, next);
        cur = next;
        hit
    };

    // -- `H`: IHDR ------------------------------------------------------
    let h_bb = arm(&mut f, b'H');
    {
        let w_lo = f.input_byte(h_bb, data);
        let d1 = f.bini(h_bb, BinOp::Add, data, 1);
        let w_hi = f.input_byte(h_bb, d1);
        let w_hi8 = f.bini(h_bb, BinOp::Shl, w_hi, 8);
        let width = f.bin(h_bb, BinOp::Or, w_lo, w_hi8);
        let d2 = f.bini(h_bb, BinOp::Add, data, 2);
        let height = f.input_byte(h_bb, d2);
        let d4 = f.bini(h_bb, BinOp::Add, data, 4);
        let depth = f.input_byte(h_bb, d4);
        let w_fld = f.gep(h_bb, png, png_struct, 0);
        f.store(h_bb, w_fld, width, 4);
        let h_fld = f.gep(h_bb, png, png_struct, 1);
        f.store(h_bb, h_fld, height, 4);
        let d_fld = f.gep(h_bb, png, png_struct, 2);
        f.store(h_bb, d_fld, depth, 1);
        let iw_fld = f.gep(h_bb, info, info_c, 0);
        f.store(h_bb, iw_fld, width, 4);
        let ih_fld = f.gep(h_bb, info, info_c, 1);
        f.store(h_bb, ih_fld, height, 4);
        // CVE-2013-7353: rowbytes is computed in a narrow integer — the
        // allocation uses the truncated size while row copies use the
        // true size.
        let true_rb = f.bin(h_bb, BinOp::Mul, width, depth);
        let masked = f.bini(h_bb, BinOp::And, true_rb, 0xFF);
        let rb_fld = f.gep(h_bb, png, png_struct, 3);
        f.store(h_bb, rb_fld, masked, 4);
        let trb_fld = f.gep(h_bb, png, png_struct, 4);
        f.store(h_bb, trb_fld, true_rb, 4);
        let row_buf = f.alloc_buf(h_bb, masked);
        let rbuf_fld = f.gep(h_bb, info, info_c, 3);
        f.store(h_bb, rbuf_fld, row_buf, 8);
        let one = f.const_(h_bb, 1);
        let valid_fld = f.gep(h_bb, info, info_c, 2);
        f.store(h_bb, valid_fld, one, 4);
        // The row-overflow victim sits right after the row buffer.
        let victim = f.alloc_obj(h_bb, unk_c);
        f.mov_to(h_bb, row_victim, victim);
        let vsize_fld = f.gep(h_bb, victim, unk_c, 2);
        let seven = f.const_(h_bb, 7);
        f.store(h_bb, vsize_fld, seven, 8);
        f.jmp(h_bb, adv);
    }

    // -- `C`: cHRM → png_xy ----------------------------------------------
    let c_bb = arm(&mut f, b'C');
    {
        let x = f.input_byte(c_bb, data);
        let d1 = f.bini(c_bb, BinOp::Add, data, 1);
        let y = f.input_byte(c_bb, d1);
        let x_fld = f.gep(c_bb, xy, xy_c, 0);
        f.store(c_bb, x_fld, x, 4);
        let y_fld = f.gep(c_bb, xy, xy_c, 1);
        f.store(c_bb, y_fld, y, 4);
        f.jmp(c_bb, adv);
    }

    // -- `B`: bKGD → png_color16 ------------------------------------------
    let b_bb = arm(&mut f, b'B');
    {
        let g = f.input_byte(b_bb, data);
        let g_fld = f.gep(b_bb, color16, color16_c, 4);
        f.store(b_bb, g_fld, g, 2);
        f.jmp(b_bb, adv);
    }

    // -- `P`: PLTE — CVE-2015-8126 heap overflow --------------------------
    let p_bb = arm(&mut f, b'P');
    {
        let count = f.input_byte(p_bb, data);
        let cnt_fld = f.gep(p_bb, color, color_c, 1);
        f.store(p_bb, cnt_fld, count, 4);
        // Copy 3·count bytes with NO bound check against PALETTE_BYTES.
        let total = f.bini(p_bb, BinOp::Mul, count, 3);
        let copy = begin_for(&mut f, p_bb, 0, total);
        let src = f.bini(copy.body, BinOp::Add, data, 1);
        let src_i = f.bin(copy.body, BinOp::Add, src, copy.i);
        let byte = f.input_byte(copy.body, src_i);
        let dst = f.bin(copy.body, BinOp::Add, palette_buf, copy.i);
        f.store(copy.body, dst, byte, 1);
        end_for(&mut f, &copy, copy.body);
        f.jmp(copy.exit, adv);
    }

    // -- `T`: tEXt — CVE-2011-3048 heap overflow --------------------------
    let t_bb = arm(&mut f, b'T');
    {
        let tl_fld = f.gep(t_bb, text_obj, text_c, 3);
        f.store(t_bb, tl_fld, clen, 8);
        let tp_fld = f.gep(t_bb, text_obj, text_c, 2);
        f.store(t_bb, tp_fld, text_buf, 8);
        // Copy clen bytes into the 32-byte text buffer, unchecked.
        let copy = begin_for(&mut f, t_bb, 0, clen);
        let src_i = f.bin(copy.body, BinOp::Add, data, copy.i);
        let byte = f.input_byte(copy.body, src_i);
        let dst = f.bin(copy.body, BinOp::Add, text_buf, copy.i);
        f.store(copy.body, dst, byte, 1);
        end_for(&mut f, &copy, copy.body);
        f.jmp(copy.exit, adv);
    }

    // -- `M`: tIME — CVE-2015-7981 out-of-bounds read ----------------------
    let m_bb = arm(&mut f, b'M');
    {
        let yr = f.input_byte(m_bb, data);
        let y_fld = f.gep(m_bb, time_obj, time_c, 0);
        f.store(m_bb, y_fld, yr, 2);
        let d2 = f.bini(m_bb, BinOp::Add, data, 2);
        let month = f.input_byte(m_bb, d2);
        let mo_fld = f.gep(m_bb, time_obj, time_c, 1);
        f.store(m_bb, mo_fld, month, 1);
        f.store(m_bb, time_str, yr, 2);
        // "Format" the timestamp: reads `extra` bytes from the 8-byte
        // scratch string — no bound check, so large counts leak the
        // adjacent png_color16 object byte by byte.
        let d6 = f.bini(m_bb, BinOp::Add, data, 6);
        let extra = f.input_byte(m_bb, d6);
        let leak = begin_for(&mut f, m_bb, 0, extra);
        let src = f.bin(leak.body, BinOp::Add, time_str, leak.i);
        let v = f.load(leak.body, src, 1);
        f.out(leak.body, v);
        end_for(&mut f, &leak, leak.body);
        f.jmp(leak.exit, adv);
    }

    // -- `Z`: text op before header — CVE-2016-10087 null deref -----------
    let z_bb = arm(&mut f, b'Z');
    {
        let rbuf_fld = f.gep(z_bb, info, info_c, 3);
        let rb = f.load(z_bb, rbuf_fld, 8);
        // If no `H` chunk ran, row_buf is NULL and this store faults.
        let one = f.const_(z_bb, 1);
        f.store(z_bb, rb, one, 1);
        f.jmp(z_bb, adv);
    }

    // -- `R`: row data — CVE-2013-7353 (short alloc, full-size copy) ------
    let r_bb = arm(&mut f, b'R');
    {
        let trb_fld = f.gep(r_bb, png, png_struct, 4);
        let true_rb = f.load(r_bb, trb_fld, 4);
        let rbuf_fld = f.gep(r_bb, info, info_c, 3);
        let row_buf = f.load(r_bb, rbuf_fld, 8);
        let copy = begin_for(&mut f, r_bb, 0, true_rb);
        let src_i = f.bin(copy.body, BinOp::Add, data, copy.i);
        let byte = f.input_byte(copy.body, src_i);
        let dst = f.bin(copy.body, BinOp::Add, row_buf, copy.i);
        f.store(copy.body, dst, byte, 1);
        end_for(&mut f, &copy, copy.body);
        f.jmp(copy.exit, adv);
    }

    // -- `O`: IDAT — CVE-2015-0973 (chunk-length overflow) -----------------
    let o_bb = arm(&mut f, b'O');
    {
        let rbuf_fld = f.gep(o_bb, info, info_c, 3);
        let row_buf = f.load(o_bb, rbuf_fld, 8);
        let copy = begin_for(&mut f, o_bb, 0, clen);
        let src_i = f.bin(copy.body, BinOp::Add, data, copy.i);
        let byte = f.input_byte(copy.body, src_i);
        let dst = f.bin(copy.body, BinOp::Add, row_buf, copy.i);
        f.store(copy.body, dst, byte, 1);
        end_for(&mut f, &copy, copy.body);
        f.jmp(copy.exit, adv);
    }

    // -- `U`: unknown chunk (safe path) ------------------------------------
    let u_bb = arm(&mut f, b'U');
    {
        let ubuf = f.alloc_buf(u_bb, clen);
        let copy = begin_for(&mut f, u_bb, 0, clen);
        let src_i = f.bin(copy.body, BinOp::Add, data, copy.i);
        let byte = f.input_byte(copy.body, src_i);
        let dst = f.bin(copy.body, BinOp::Add, ubuf, copy.i);
        f.store(copy.body, dst, byte, 1);
        end_for(&mut f, &copy, copy.body);
        let d_fld = f.gep(copy.exit, xy, xy_c, 0); // touch a benign field
        let dummy = f.load(copy.exit, d_fld, 4);
        let folded = f.bin(copy.exit, BinOp::Add, checksum, dummy);
        f.mov_to(copy.exit, checksum, folded);
        let data_fld = f.gep(copy.exit, color, color_c, 0);
        f.store(copy.exit, data_fld, byte, 1);
        // Record into the startup unknown-chunk object.
        let unk = f.alloc_obj(copy.exit, unk_c);
        let up_fld = f.gep(copy.exit, unk, unk_c, 1);
        f.store(copy.exit, up_fld, ubuf, 8);
        let us_fld = f.gep(copy.exit, unk, unk_c, 2);
        f.store(copy.exit, us_fld, clen, 8);
        f.jmp(copy.exit, adv);
    }

    // -- `E`: end ----------------------------------------------------------
    let e_bb = arm(&mut f, b'E');
    f.jmp(e_bb, done);

    // Unknown type: skip.
    f.jmp(cur, adv);

    // advance: pos = data + clen
    let next_pos = f.bin(adv, BinOp::Add, data, clen);
    f.mov_to(adv, pos, next_pos);
    f.jmp(adv, head);

    // ---- done: apply the row transform, then tear down -------------------
    // out[0] = row_fn (control-flow target the exploits hijack)
    let row_fn_fld2 = f.gep(done, png, png_struct, ROW_FN_FIELD);
    let row_fn = f.load(done, row_fn_fld2, 8);
    f.out(done, row_fn);
    // out[1] = the row victim's size field (corruption indicator), or 7.
    let have_victim = f.cmpi(done, CmpOp::Ne, row_victim, 0);
    let v_bb = f.block();
    let nv_bb = f.block();
    let fini = f.block();
    f.br(done, have_victim, v_bb, nv_bb);
    let vs_fld = f.gep(v_bb, row_victim, unk_c, 2);
    let vs = f.load(v_bb, vs_fld, 8);
    f.out(v_bb, vs);
    f.free_obj(v_bb, row_victim);
    f.jmp(v_bb, fini);
    let seven = f.const_(nv_bb, 7);
    f.out(nv_bb, seven);
    f.jmp(nv_bb, fini);
    // Destroy the read structs — booby-trap checks fire here under POLaR.
    // out[2] = the text object's key pointer — the parser never writes
    // it, so any non-zero value is CVE-2011-3048 corruption.
    let key_fld = f.gep(fini, text_obj, text_c, 1);
    let key = f.load(fini, key_fld, 8);
    f.out(fini, key);
    f.free_obj(fini, png);
    f.free_obj(fini, info);
    f.free_obj(fini, text_obj);
    f.free_obj(fini, color16);
    f.out(fini, checksum);
    f.ret(fini, Some(checksum));
    mb.finish_function(f);

    MiniPng {
        module: mb.build().expect("valid module"),
        png_struct,
        classes: vec![png_struct, info_c, color_c, color16_c, text_c, time_c, xy_c, unk_c],
    }
}

/// Serialize a chunk stream into the wire format.
pub fn file(chunks: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut out = vec![0x89];
    for (ty, payload) in chunks {
        out.push(*ty);
        out.push((payload.len() & 0xFF) as u8);
        out.push((payload.len() >> 8) as u8);
        out.extend_from_slice(payload);
    }
    out.push(b'E');
    out.push(0);
    out.push(0);
    out
}

/// A well-formed image exercising every chunk type (and thus all eight
/// tainted classes) without triggering any planted CVE.
pub fn safe_input() -> Vec<u8> {
    file(&[
        (b'H', vec![16, 0, 8, 0, 8, 0]),          // 16×8, depth 8 → 128-byte rows
        (b'C', vec![31, 32]),                      // cHRM
        (b'B', vec![5]),                           // bKGD
        (b'P', {
            let mut p = vec![8];                   // 8 palette entries (≤16)
            p.extend((0u8..24).map(|i| i * 3));
            p
        }),
        (b'T', b"hello png".to_vec()),             // 9 ≤ 32
        (b'M', vec![226, 7, 6, 4, 12, 0, 0]),      // tIME, extra=0 (no leak)
        (b'U', vec![1, 2, 3, 4]),
        (b'R', (0u8..128).collect()),              // exactly true_rowbytes
    ])
}

/// The canonical workload wrapper (safe input).
pub fn workload() -> Workload {
    Workload::new("libpng-1.6.34", build().module, safe_input(), 8_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_ir::interp::{run_native, run_with_mode, ExecLimits};
    use polar_runtime::{RandomizeMode, RuntimeConfig};

    #[test]
    fn safe_input_parses_cleanly() {
        let png = build();
        let report = run_native(&png.module, &safe_input(), ExecLimits::default());
        assert!(report.result.is_ok(), "{:?}", report.result);
        // row_fn untouched, victim size intact.
        assert_eq!(report.output[0], 0x1000);
        assert_eq!(report.output[1], 7);
    }

    #[test]
    fn safe_input_parses_under_polar() {
        let png = build();
        let (hardened, _) = polar_instrument::instrument(
            &png.module,
            &polar_instrument::InstrumentOptions::default(),
        );
        let report = run_with_mode(
            &hardened,
            RandomizeMode::per_allocation(),
            RuntimeConfig::default(),
            &safe_input(),
            ExecLimits::default(),
        );
        assert!(report.result.is_ok(), "{:?}", report.result);
        assert_eq!(report.output[0], 0x1000);
        assert_eq!(report.output[1], 7);
    }

    #[test]
    fn palette_overflow_hijacks_row_fn_natively() {
        // CVE-2015-8126: 30 entries = 90 bytes; bytes at block offset
        // 64+24 land on row_fn's natural location.
        let png = build();
        let mut payload = vec![32u8];
        payload.extend(std::iter::repeat_n(0u8, 96));
        let target = (PALETTE_BLOCK + ROW_FN_NATURAL_OFFSET) as usize;
        for k in 0..8 {
            payload[1 + target + k] = 0x41;
        }
        let input = file(&[(b'P', payload)]);
        let report = run_native(&png.module, &input, ExecLimits::default());
        assert!(report.result.is_ok());
        assert_eq!(report.output[0], HIJACK_VALUE, "native hijack must be deterministic");
    }

    #[test]
    fn null_deref_cve_faults() {
        let png = build();
        let input = file(&[(b'Z', vec![])]);
        let report = run_native(&png.module, &input, ExecLimits::default());
        assert!(report.crashed(), "{:?}", report.result);
    }

    #[test]
    fn oob_read_leaks_the_secret_natively() {
        // extra = 40 reads past the 8-byte scratch into png_color16.
        let png = build();
        let input = file(&[(b'M', vec![0, 0, 1, 1, 1, 0, 40])]);
        let report = run_native(&png.module, &input, ExecLimits::default());
        assert!(report.result.is_ok());
        // The secret's little-endian bytes appear in the leak at the
        // block boundary + natural offset of `red` (2).
        let leak: Vec<u64> = report.output.clone();
        let lo = COLOR16_SECRET & 0xFF;
        let hi = COLOR16_SECRET >> 8;
        let found = leak.windows(2).any(|w| w[0] == lo && w[1] == hi);
        assert!(found, "secret not leaked: {leak:?}");
    }

    #[test]
    fn tainted_classes_match_table1() {
        use polar_taint::{analyze, TaintConfig};
        let png = build();
        let (report, exec) = analyze(
            &png.module,
            &safe_input(),
            ExecLimits::default(),
            &TaintConfig::default(),
        );
        assert!(exec.result.is_ok());
        assert_eq!(
            report.tainted_class_count(),
            8,
            "{}",
            report.render(&png.module.registry)
        );
    }
}

#include "timingsim/bitslice.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/simd.hpp"

namespace pufatt::timingsim {

using netlist::GateId;
using netlist::GateKind;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

inline bool word_bit(const std::uint64_t* words, std::size_t lane) {
  return (words[lane >> 6] >> (lane & 63)) & 1ULL;
}

obs::Span trace_bitslice(std::size_t lanes, std::size_t gates) {
  if (!obs::global_trace_enabled()) return obs::Span{};
  // Occupancy counters (sim.lanes / sim.batches is the mean batch fill)
  // plus a per-run span for trace-report.
  auto& registry = obs::global_registry();
  static obs::Counter& batches = registry.counter("sim.batches");
  static obs::Counter& lane_count = registry.counter("sim.lanes");
  static obs::Gauge& occupancy = registry.gauge("sim.batch_occupancy");
  batches.add(1);
  lane_count.add(lanes);
  occupancy.set(static_cast<double>(lanes));
  obs::Span span = obs::global_tracer().span("sim.run_bitslice");
  span.note("lanes", static_cast<double>(lanes));
  span.note("gates", static_cast<double>(gates));
  return span;
}

/// Per-fanin time source for the wide time kernels: how to materialize the
/// fanin's settle time at a given lane.  `vw` (the fanin's value words) is
/// always set — the AND/MUX kernels need fanin values regardless of rep.
struct Src {
  std::uint8_t mode = 0;  // TimeRep
  double t0 = 0.0;
  double t1 = 0.0;
  const double* wide = nullptr;
  const std::uint64_t* vw = nullptr;

  double at(std::size_t lane) const {
    if (mode == 2) return wide[lane];
    if (mode == 1) return word_bit(vw, lane) ? t1 : t0;
    return t0;
  }
};

/// The value bits of lanes [lane, lane + 8), lane a multiple of 8.
inline std::uint8_t block_bits(const std::uint64_t* words, std::size_t lane) {
  return static_cast<std::uint8_t>(words[lane >> 6] >> (lane & 63));
}

// ------------------------------------------------------ wide time kernels
//
// Every kernel reproduces the scalar engine's per-lane arithmetic exactly
// (the same selections, the same single add), so the produced doubles are
// bit-identical to TimingSimulator::run.  The fused (2-input AND-family)
// and 2-input XOR kernels run 8-lane blocks (support/simd.hpp) of min/max,
// bitwise selects and one add; the unary, MUX and n-ary kernels go lane by
// lane.
// kLane = per-lane delays (device batches): the delay rows hold exactly
// `count` lanes, and so do the time rows of a one-word batch, so the last
// block of a count that is not a multiple of 8 loads and stores only its
// live lanes.  Shared mode processes the padded tail lanes as well (inputs
// are zero-filled there and nothing exposes them), which keeps its loop
// whole blocks (see BitSliceState::padded).

/// Row access for one block: all 8 lanes, or the first n of a lane-delay
/// run's last block.
struct Whole {
  simd::Doubles load(const double* p) const { return simd::load(p); }
  void store(double* p, const simd::Doubles& x) const { simd::store(p, x); }
};
struct Part {
  std::size_t n;
  simd::Doubles load(const double* p) const { return simd::load(p, n); }
  void store(double* p, const simd::Doubles& x) const {
    simd::store(p, x, n);
  }
};

/// Runs body(lane, io) once per block of the kernel's lanes.
template <bool kLane, class Body>
void for_blocks(std::size_t count, std::size_t padded, const Body& body) {
  const std::size_t limit = kLane ? count : padded;
  std::size_t lane = 0;
#pragma GCC unroll 2
  for (; lane + simd::kLanes <= limit; lane += simd::kLanes) {
    body(lane, Whole{});
  }
  if (lane < limit) body(lane, Part{limit - lane});
}

/// The lanes of a block whose value bit (in `vw`) is 1.
inline simd::Mask ones(const std::uint64_t* vw, std::size_t lane) {
  return simd::lanes_of(block_bits(vw, lane));
}

/// A fanin's times over one block, fetched by its run-time mode, `value`
/// being ones(s.vw, lane): a per-mode template dispatch measured no faster
/// at 256 and 512 lanes, and the served 8-lane calls run one block, so
/// there it would only add the dispatch.
template <class Io>
simd::Doubles fetch(const Src& s, const simd::Mask& value, std::size_t lane,
                    Io io) {
  if (s.mode == 2) return io.load(s.wide + lane);
  if (s.mode == 1) {
    return simd::select(value, simd::splat(s.t1), simd::splat(s.t0));
  }
  return simd::splat(s.t0);
}

template <class Io>
simd::Doubles fetch(const Src& s, std::size_t lane, Io io) {
  if (s.mode == 1) return fetch(s, ones(s.vw, lane), lane, io);
  return fetch(s, simd::Mask{}, lane, io);
}

/// An AND-family gate's determined time: the earliest fanin holding the
/// controlling value (masks ca, cb), else the latest fanin, mx =
/// max(xa, xb).  The earliest controlling time is never above mx, so the
/// scalar engine's `earliest != inf ? earliest : latest` is one more min.
inline simd::Doubles and_settle(const simd::Mask& ca, const simd::Doubles& xa,
                                const simd::Mask& cb, const simd::Doubles& xb,
                                const simd::Doubles& mx) {
  const simd::Doubles inf = simd::splat(kInf);
  return simd::min(
      simd::min(simd::select(ca, xa, inf), simd::select(cb, xb, inf)), mx);
}

/// The output gate of a time step: where its value words, delays, and
/// output time lanes live.  `cinv` is the AND-family controlling-value invert
/// (0x00 when the controlling value is 1, 0xFF when it is 0).
struct FusedGate {
  const std::uint64_t* vw = nullptr;  ///< own value words (delay select)
  double r = 0.0, f = 0.0;            ///< shared-mode delays
  const double* rp = nullptr;         ///< lane-mode delay rows
  const double* fp = nullptr;
  double* tp = nullptr;               ///< output time lanes
  std::uint8_t cinv = 0;
};

/// A fused full-adder step: P = AND-family(x, y), optionally S = XOR(x, y)
/// (shares max(xa, xb) with P) and C = AND-family(g, P) (P's freshly
/// computed times forward in registers).  Each gate's arithmetic is exactly
/// the scalar engine's — fusion only shares fetches and loop overhead.  A
/// lone AND-family gate runs as a step with neither S nor C.
struct FusedCtx {
  Src x, y, g;
  bool has_s = false;
  bool has_c = false;
  FusedGate P, S, C;
};

/// One materialized time-pass step: kernel arguments fully resolved to
/// pointers.  Non-fused ops reuse the FusedCtx storage — fanin sources in
/// x/y/g, the output gate's descriptors in P.
struct PreOp {
  enum Kind : std::uint8_t {
    kFused,
    kUnary,
    kMux,
    kXor2,
    kNaryAnd,
    kNaryXor,
  };
  Kind kind = kFused;
  bool ctrl = false;          // AND-family controlling value
  std::uint32_t nf = 0;       // n-ary fanin count
  std::uint32_t nary_off = 0; // offset into ExecPlan::nary
  FusedCtx fc;
};

/// The cached dispatch for one (engine, state shape, buffer placement).
/// Everything the stamp covers is baked into the PreOp pointers, so a
/// matching stamp means the ops can run as-is.
struct ExecPlan {
  std::uint64_t owner = 0;
  std::size_t count = 0;
  const std::uint64_t* values = nullptr;
  const double* times = nullptr;
  const double* ldr = nullptr;  // lane-delay rows (null in shared mode)
  const double* ldf = nullptr;
  std::vector<PreOp> ops;
  std::vector<Src> nary;  // flat fanin-source pool for n-ary ops
};

/// A gate's delay per lane: rise where its own value is 1 (`rise` =
/// ones(o.vw, lane)), else fall.
template <bool kLane, class Io>
simd::Doubles delay(const FusedGate& o, const simd::Mask& rise,
                    std::size_t lane, Io io) {
  if constexpr (kLane) {
    return simd::select(rise, io.load(o.rp + lane), io.load(o.fp + lane));
  }
  return simd::select(rise, simd::splat(o.r), simd::splat(o.f));
}

template <bool kLane>
void wide_xor2(const Src& a, const Src& b, const FusedGate& o,
               std::size_t count, std::size_t padded) {
  for_blocks<kLane>(count, padded, [&](std::size_t lane, auto io) {
    const simd::Doubles det =
        simd::max(fetch(a, lane, io), fetch(b, lane, io));
    io.store(o.tp + lane, det + delay<kLane>(o, ones(o.vw, lane), lane, io));
  });
}

/// The fused step.  x, y and g are fetched by their run-time mode.  Each
/// value byte becomes a lane mask once per block: a fanin's controlling
/// lanes are its value lanes XOR the gate's all-lanes `cinv` mask.
template <bool kLane>
void fused_run(const FusedCtx& c, std::size_t count, std::size_t padded) {
  const simd::Mask p_inv = simd::all_lanes(c.P.cinv != 0);
  const simd::Mask c_inv = simd::all_lanes(c.C.cinv != 0);
  for_blocks<kLane>(count, padded, [&](std::size_t lane, auto io) {
    const simd::Mask vx = ones(c.x.vw, lane);
    const simd::Mask vy = ones(c.y.vw, lane);
    const simd::Mask vP = ones(c.P.vw, lane);
    const simd::Doubles xa = fetch(c.x, vx, lane, io);
    const simd::Doubles xb = fetch(c.y, vy, lane, io);
    const simd::Doubles mx = simd::max(xa, xb);
    // P = AND-family(x, y).
    const simd::Doubles tP =
        and_settle(vx ^ p_inv, xa, vy ^ p_inv, xb, mx) +
        delay<kLane>(c.P, vP, lane, io);
    io.store(c.P.tp + lane, tP);
    // S = XOR(x, y): its determined time is exactly max(xa, xb) = mx.
    if (c.has_s) {
      io.store(c.S.tp + lane,
               mx + delay<kLane>(c.S, ones(c.S.vw, lane), lane, io));
    }
    // C = AND-family(g, P): tP never leaves registers.  min/max selection
    // is operand-order independent (ties select equal doubles), so the
    // (g, P) order here matches the scalar engine bit-for-bit even when
    // C's netlist fanins are (P, g).
    if (c.has_c) {
      const simd::Mask vg = ones(c.g.vw, lane);
      const simd::Doubles xg = fetch(c.g, vg, lane, io);
      const simd::Doubles det = and_settle(vg ^ c_inv, xg, vP ^ c_inv, tP,
                                           simd::max(xg, tP));
      io.store(c.C.tp + lane,
               det + delay<kLane>(c.C, ones(c.C.vw, lane), lane, io));
    }
  });
}

template <bool kLane>
void wide_unary(const Src& sa, const std::uint64_t* vow, double grise,
                double gfall, const double* rp, const double* fp, double* tp,
                std::size_t count, std::size_t padded) {
  const std::size_t limit = kLane ? count : padded;
  for (std::size_t lane = 0; lane < limit; ++lane) {
    const bool val = word_bit(vow, lane);
    const double dr = kLane ? rp[lane] : grise;
    const double df = kLane ? fp[lane] : gfall;
    tp[lane] = sa.at(lane) + (val ? dr : df);
  }
}

template <bool kLane>
void wide_mux(const Src& ss, const Src& s0, const Src& s1,
              const std::uint64_t* vow, double grise, double gfall,
              const double* rp, const double* fp, double* tp,
              std::size_t count, std::size_t padded) {
  const std::size_t limit = kLane ? count : padded;
  for (std::size_t lane = 0; lane < limit; ++lane) {
    const bool sel = word_bit(ss.vw, lane);
    const bool y0 = word_bit(s0.vw, lane);
    const bool y1 = word_bit(s1.vw, lane);
    const double xs = ss.at(lane);
    const double x0 = s0.at(lane);
    const double x1 = s1.at(lane);
    const double chosen_t = sel ? x1 : x0;
    const double det =
        xs == kAlwaysSettled
            ? chosen_t
            : (y0 == y1 ? std::max(x0, x1) : std::max(xs, chosen_t));
    const bool val = word_bit(vow, lane);
    const double dr = kLane ? rp[lane] : grise;
    const double df = kLane ? fp[lane] : gfall;
    tp[lane] = det + (val ? dr : df);
  }
}

template <bool kLane>
void wide_nary_and(const Src* srcs, std::size_t nf, const std::uint64_t* vow,
                   bool ctrl, double grise, double gfall, const double* rp,
                   const double* fp, double* tp, std::size_t count,
                   std::size_t padded) {
  const std::size_t limit = kLane ? count : padded;
  for (std::size_t lane = 0; lane < limit; ++lane) {
    double latest = kAlwaysSettled;
    double earliest = kInf;
    for (std::size_t k = 0; k < nf; ++k) {
      const double x = srcs[k].at(lane);
      const double e = earliest;
      latest = std::max(latest, x);
      earliest = word_bit(srcs[k].vw, lane) == ctrl ? std::min(e, x) : e;
    }
    const bool any = earliest != kInf;
    const double det = any ? earliest : latest;
    const bool val = word_bit(vow, lane);
    const double dr = kLane ? rp[lane] : grise;
    const double df = kLane ? fp[lane] : gfall;
    tp[lane] = det + (val ? dr : df);
  }
}

template <bool kLane>
void wide_nary_xor(const Src* srcs, std::size_t nf, const std::uint64_t* vow,
                   double grise, double gfall, const double* rp,
                   const double* fp, double* tp, std::size_t count,
                   std::size_t padded) {
  const std::size_t limit = kLane ? count : padded;
  for (std::size_t lane = 0; lane < limit; ++lane) {
    double latest = kAlwaysSettled;
    for (std::size_t k = 0; k < nf; ++k) {
      latest = std::max(latest, srcs[k].at(lane));
    }
    const bool val = word_bit(vow, lane);
    const double dr = kLane ? rp[lane] : grise;
    const double df = kLane ? fp[lane] : gfall;
    tp[lane] = latest + (val ? dr : df);
  }
}

/// Classification-time evaluation of one fanin value combination, using
/// the scalar engine's exact semantics (same selections, same single add).
struct VT {
  bool v;
  double t;
};

VT eval_combo(GateKind kind, const VT* ins, std::size_t nf, double rise,
              double fall) {
  bool value = false;
  double det = 0.0;
  switch (kind) {
    case GateKind::kBuf:
      value = ins[0].v;
      det = ins[0].t;
      break;
    case GateKind::kNot:
      value = !ins[0].v;
      det = ins[0].t;
      break;
    case GateKind::kMux: {
      const VT& sel = ins[0];
      const VT& d0 = ins[1];
      const VT& d1 = ins[2];
      const VT& chosen = sel.v ? d1 : d0;
      value = chosen.v;
      if (sel.t == kAlwaysSettled) {
        det = chosen.t;
      } else if (d0.v == d1.v) {
        det = std::max(d0.t, d1.t);
      } else {
        det = std::max(sel.t, chosen.t);
      }
      break;
    }
    case GateKind::kAnd:
    case GateKind::kNand:
    case GateKind::kOr:
    case GateKind::kNor: {
      const bool controlling =
          (kind == GateKind::kOr || kind == GateKind::kNor);
      bool any = false;
      double earliest = 0.0;
      double latest = kAlwaysSettled;
      for (std::size_t k = 0; k < nf; ++k) {
        latest = std::max(latest, ins[k].t);
        if (ins[k].v == controlling) {
          if (!any || ins[k].t < earliest) earliest = ins[k].t;
          any = true;
        }
      }
      const bool raw = any ? controlling : !controlling;
      const bool inverted =
          (kind == GateKind::kNand || kind == GateKind::kNor);
      value = inverted ? !raw : raw;
      det = any ? earliest : latest;
      break;
    }
    case GateKind::kXor:
    case GateKind::kXnor: {
      bool v = (kind == GateKind::kXnor);
      double latest = kAlwaysSettled;
      for (std::size_t k = 0; k < nf; ++k) {
        v = v != ins[k].v;
        latest = std::max(latest, ins[k].t);
      }
      value = v;
      det = latest;
      break;
    }
    default:
      break;  // inputs/constants never reach enumeration
  }
  return {value, det + (value ? rise : fall)};
}

// Value pass: one word op evaluates a gate for 64 lanes.  It walks the
// compiled netlist's flat value program (one record per gate, operands
// resolved to value rows) with one switch per gate, templated on the word
// count so the common batch sizes (64..1024 lanes) get fully unrolled
// inner loops — at runtime trip counts the loop overhead dwarfs the single
// AND/XOR it wraps.  NWC == 0 is the generic any-size fallback.
template <std::size_t NWC>
void value_pass(const CompiledNetlist& cn, const std::uint64_t* input_words,
                std::uint64_t* values, std::size_t nw_dynamic) {
  const std::size_t NW = NWC != 0 ? NWC : nw_dynamic;
  const netlist::GateId* const fanins = cn.fanins().data();
  using W = std::uint64_t;
  const auto row = [&](std::uint32_t g) {
    return values + static_cast<std::size_t>(g) * NW;
  };
  for (const ValueOp& o : cn.value_program()) {
    std::uint64_t* const v = row(o.out);
    const auto binary = [&](auto f) {
      const std::uint64_t* const a = row(o.a);
      const std::uint64_t* const b = row(o.b);
      for (std::size_t w = 0; w < NW; ++w) v[w] = f(a[w], b[w]);
    };
    switch (o.op) {
      case BatchOp::kInput: {
        const std::uint64_t* const src =
            input_words + static_cast<std::size_t>(o.a) * NW;
        for (std::size_t w = 0; w < NW; ++w) v[w] = src[w];
        break;
      }
      case BatchOp::kConst0:
        break;  // never in the program: values already zero
      case BatchOp::kConst1:
        for (std::size_t w = 0; w < NW; ++w) v[w] = ~0ULL;
        break;
      case BatchOp::kBuf: {
        const std::uint64_t* const a = row(o.a);
        for (std::size_t w = 0; w < NW; ++w) v[w] = a[w];
        break;
      }
      case BatchOp::kNot: {
        const std::uint64_t* const a = row(o.a);
        for (std::size_t w = 0; w < NW; ++w) v[w] = ~a[w];
        break;
      }
      case BatchOp::kMux: {
        const std::uint64_t* const s = row(o.a);
        const std::uint64_t* const d0 = row(o.b);
        const std::uint64_t* const d1 = row(o.c);
        for (std::size_t w = 0; w < NW; ++w) {
          v[w] = (s[w] & d1[w]) | (~s[w] & d0[w]);
        }
        break;
      }
      case BatchOp::kAnd2:
        binary([](W a, W b) { return a & b; });
        break;
      case BatchOp::kOr2:
        binary([](W a, W b) { return a | b; });
        break;
      case BatchOp::kNand2:
        binary([](W a, W b) { return ~(a & b); });
        break;
      case BatchOp::kNor2:
        binary([](W a, W b) { return ~(a | b); });
        break;
      case BatchOp::kXor2:
        binary([](W a, W b) { return a ^ b; });
        break;
      case BatchOp::kXnor2:
        binary([](W a, W b) { return ~(a ^ b); });
        break;
      case BatchOp::kAndN:
      case BatchOp::kNandN:
      case BatchOp::kOrN:
      case BatchOp::kNorN: {
        const bool or_like = (o.op == BatchOp::kOrN || o.op == BatchOp::kNorN);
        const bool inverted =
            (o.op == BatchOp::kNandN || o.op == BatchOp::kNorN);
        for (std::size_t w = 0; w < NW; ++w) {
          std::uint64_t acc = or_like ? 0 : ~0ULL;
          for (std::uint32_t k = o.a; k < o.b; ++k) {
            const std::uint64_t fw = row(fanins[k])[w];
            acc = or_like ? (acc | fw) : (acc & fw);
          }
          v[w] = inverted ? ~acc : acc;
        }
        break;
      }
      case BatchOp::kXorN:
      case BatchOp::kXnorN: {
        for (std::size_t w = 0; w < NW; ++w) {
          std::uint64_t acc = o.op == BatchOp::kXnorN ? ~0ULL : 0;
          for (std::uint32_t k = o.a; k < o.b; ++k) acc ^= row(fanins[k])[w];
          v[w] = acc;
        }
        break;
      }
    }
  }
}

}  // namespace

void pack_input_words(const support::BitVector* challenges, std::size_t count,
                      std::size_t num_inputs,
                      std::vector<std::uint64_t>& out) {
  const std::size_t nwords = (count + 63) / 64;
  out.assign(num_inputs * nwords, 0);
  for (std::size_t blk = 0; blk < nwords; ++blk) {
    const std::size_t lanes = std::min<std::size_t>(64, count - blk * 64);
    support::pack_bit_columns(challenges + blk * 64, lanes, num_inputs,
                              out.data() + blk, nwords);
  }
}

void pack_input_words(const std::uint64_t* challenges, std::size_t count,
                      std::size_t num_inputs, std::uint64_t* out) {
  if (num_inputs > 64) {
    throw std::invalid_argument("pack_input_words: more than 64 inputs");
  }
  if (count != 0 && count <= 8) {
    // One PUF() call's worth of challenges, an 8 x 64 bit matrix: swap
    // bytes so that y[k] holds byte k of every challenge (byte l from
    // challenge l), then transpose each y[k] as an 8 x 8 bit matrix, whose
    // byte j is lane word 8k + j (stored little-endian, as on x86).  Word
    // ops only, no 64x64 transpose.
    std::uint64_t y[8] = {};
    std::copy_n(challenges, count, y);
    for (std::size_t step = 4, shift = 32; step != 0; step /= 2, shift /= 2) {
      // The low `shift` bits of every 2*shift-bit field.
      const std::uint64_t mask = ~0ULL / ((1ULL << shift) + 1);
      for (std::size_t l = 0; l < 8; ++l) {
        if ((l & step) != 0) continue;
        const std::uint64_t t = ((y[l] >> shift) ^ y[l + step]) & mask;
        y[l] ^= t << shift;
        y[l + step] ^= t;
      }
    }
    std::uint8_t lane_bytes[64];
    for (std::size_t k = 0; k < 8; ++k) {
      const std::uint64_t x = support::transpose_8x8(y[k]);
      std::memcpy(lane_bytes + 8 * k, &x, sizeof x);
    }
    std::copy_n(lane_bytes, num_inputs, out);
    return;
  }
  const std::size_t nwords = (count + 63) / 64;
  std::uint64_t m[64] = {};
  for (std::size_t blk = 0; blk < nwords; ++blk) {
    const std::size_t lanes = std::min<std::size_t>(64, count - blk * 64);
    std::copy_n(challenges + blk * 64, lanes, m);
    std::fill(m + lanes, m + 64, 0);
    support::transpose_64x64(m);
    for (std::size_t i = 0; i < num_inputs; ++i) out[i * nwords + blk] = m[i];
  }
}

namespace {

std::uint64_t next_engine_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

BitSliceEngine::BitSliceEngine(const CompiledNetlist& compiled)
    : cn_(&compiled), id_(next_engine_id()) {
  init_common();
  // Lane-delay mode: every lane jitters its own delays, so no gate's time
  // can be lane-invariant except the delay-free inputs and constants.
  for (const GateId g : cn_->schedule()) {
    switch (cn_->kind(g)) {
      case GateKind::kInput:
        break;  // kConstT, t0 = 0
      case GateKind::kConst0:
      case GateKind::kConst1:
        t0_[g] = kAlwaysSettled;
        break;
      default:
        rep_[g] = kWideT;
        slot_[g] = static_cast<std::uint32_t>(wide_count_++);
        break;
    }
  }
  build_plan();
}

BitSliceEngine::BitSliceEngine(const CompiledNetlist& compiled,
                               const DelaySet& delays)
    : cn_(&compiled), id_(next_engine_id()), shared_(true) {
  if (delays.rise_ps.size() != cn_->num_gates() ||
      delays.fall_ps.size() != cn_->num_gates()) {
    throw std::invalid_argument("BitSliceEngine: wrong delay count");
  }
  init_common();
  rise_ = delays.rise_ps;
  fall_ = delays.fall_ps;
  classify_shared(delays);
  build_plan();
}

void BitSliceEngine::init_common() {
  const std::size_t n = cn_->num_gates();
  rep_.assign(n, kConstT);
  t0_.assign(n, 0.0);
  t1_.assign(n, 0.0);
  slot_.assign(n, 0);
}

void BitSliceEngine::classify_shared(const DelaySet& delays) {
  const CompiledNetlist& cn = *cn_;
  const GateId* const fanins = cn.fanins().data();
  // -1 = value varies across lanes; 0/1 = provably constant.
  std::vector<std::int8_t> fixed(cn.num_gates(), -1);

  for (const GateId g : cn.schedule()) {
    const GateKind kind = cn.kind(g);
    if (kind == GateKind::kInput) continue;  // kConstT, t0 = 0
    if (kind == GateKind::kConst0 || kind == GateKind::kConst1) {
      t0_[g] = kAlwaysSettled;
      fixed[g] = kind == GateKind::kConst1 ? 1 : 0;
      continue;
    }
    const std::uint32_t fb = cn.fanin_begin(g);
    const std::size_t nf = cn.fanin_count(g);

    // Collect each fanin's possible (value, time) pairs.  Any wide fanin
    // or an oversized combination space forces this gate wide.
    bool wide = false;
    std::size_t combos = 1;
    std::vector<std::array<VT, 2>> opts(nf);
    std::vector<std::size_t> nopts(nf);
    for (std::size_t k = 0; k < nf && !wide; ++k) {
      const GateId f = fanins[fb + k];
      switch (rep_[f]) {
        case kWideT:
          wide = true;
          break;
        case kBimodalT:
          opts[k] = {VT{false, t0_[f]}, VT{true, t1_[f]}};
          nopts[k] = 2;
          break;
        default:
          if (fixed[f] >= 0) {
            opts[k] = {VT{fixed[f] != 0, t0_[f]}, VT{}};
            nopts[k] = 1;
          } else {
            opts[k] = {VT{false, t0_[f]}, VT{true, t0_[f]}};
            nopts[k] = 2;
          }
          break;
      }
      combos *= nopts[k];
      if (combos > 64) wide = true;
    }

    if (!wide) {
      // Enumerate all combinations (a superset of the reachable ones —
      // correlations between fanins can only shrink the real set, so the
      // verdict is conservative) and see whether the gate's own value
      // determines its time.
      bool have[2] = {false, false};
      double tt[2] = {0.0, 0.0};
      bool multi = false;
      std::vector<VT> ins(nf);
      for (std::size_t idx = 0; idx < combos && !multi; ++idx) {
        std::size_t rem = idx;
        for (std::size_t k = 0; k < nf; ++k) {
          ins[k] = opts[k][rem % nopts[k]];
          rem /= nopts[k];
        }
        const VT r = eval_combo(kind, ins.data(), nf, delays.rise_ps[g],
                                delays.fall_ps[g]);
        const int vi = r.v ? 1 : 0;
        if (!have[vi]) {
          have[vi] = true;
          tt[vi] = r.t;
        } else if (tt[vi] != r.t) {
          multi = true;
        }
      }
      if (!multi) {
        if (have[0] && have[1]) {
          if (tt[0] == tt[1]) {
            t0_[g] = tt[0];  // kConstT with free value
          } else {
            rep_[g] = kBimodalT;
            t0_[g] = tt[0];
            t1_[g] = tt[1];
          }
        } else {
          t0_[g] = have[0] ? tt[0] : tt[1];
          fixed[g] = have[0] ? 0 : 1;
        }
        continue;
      }
    }
    rep_[g] = kWideT;
    slot_[g] = static_cast<std::uint32_t>(wide_count_++);
  }
}

void BitSliceEngine::build_plan() {
  const CompiledNetlist& cn = *cn_;
  const GateId* const fanins = cn.fanins().data();
  const auto& sched = cn.schedule();
  const auto& lo = cn.level_offsets();
  plan_.clear();
  plan_.reserve(wide_count_);

  const auto is_and2 = [&](GateId h) {
    const BatchOp o = cn.op(h);
    return o == BatchOp::kAnd2 || o == BatchOp::kNand2 ||
           o == BatchOp::kOr2 || o == BatchOp::kNor2;
  };
  const auto is_xor2 = [&](GateId h) {
    const BatchOp o = cn.op(h);
    return o == BatchOp::kXor2 || o == BatchOp::kXnor2;
  };
  const auto same_pair = [&](GateId h, GateId x, GateId y) {
    const std::uint32_t hb = cn.fanin_begin(h);
    const GateId hx = fanins[hb];
    const GateId hy = fanins[hb + 1];
    return (hx == x && hy == y) || (hx == y && hy == x);
  };

  // Schedule position per gate — "already computed at step i" checks.
  std::vector<std::uint32_t> pos(cn.num_gates(), 0);
  for (std::size_t i = 0; i < sched.size(); ++i) {
    pos[sched[i]] = static_cast<std::uint32_t>(i);
  }
  // Gates already emitted into the plan (as p, s, or c of some entry).
  std::vector<std::uint8_t> emitted(cn.num_gates(), 0);

  for (std::size_t i = 0; i < sched.size(); ++i) {
    GateId g = sched[i];
    if (rep_[g] != kWideT || emitted[g]) continue;
    PlanOp po{g, kNoGate, kNoGate};
    emitted[g] = 1;

    // If g is the XOR half of a full adder, look for its AND-family twin
    // later in the same level and make that the anchor (P must be the
    // AND-family gate — its output feeds the carry).
    const std::uint32_t lvl = cn.level(g);
    if (is_xor2(g)) {
      const std::uint32_t gb = cn.fanin_begin(g);
      for (std::uint32_t j = lo[lvl]; j < lo[lvl + 1]; ++j) {
        const GateId h = sched[j];
        if (emitted[h] || rep_[h] != kWideT || !is_and2(h)) continue;
        if (same_pair(h, fanins[gb], fanins[gb + 1])) {
          po.s = g;
          po.p = h;
          emitted[h] = 1;
          break;
        }
      }
    }
    if (is_and2(po.p)) {
      const GateId p = po.p;
      const std::uint32_t pb = cn.fanin_begin(p);
      const GateId x = fanins[pb];
      const GateId y = fanins[pb + 1];
      // Sibling XOR sharing both fanins (sum next to carry-propagate).
      if (po.s == kNoGate) {
        for (std::uint32_t j = lo[lvl]; j < lo[lvl + 1]; ++j) {
          const GateId h = sched[j];
          if (emitted[h] || rep_[h] != kWideT || !is_xor2(h)) continue;
          if (same_pair(h, x, y)) {
            po.s = h;
            emitted[h] = 1;
            break;
          }
        }
      }
      // 2-input AND-family consumer of p in the next level whose other
      // fanin is already computed (the carry-out OR).
      if (lvl + 1 < cn.num_levels()) {
        for (std::uint32_t j = lo[lvl + 1]; j < lo[lvl + 2]; ++j) {
          const GateId h = sched[j];
          if (emitted[h] || rep_[h] != kWideT || !is_and2(h)) continue;
          const std::uint32_t hb = cn.fanin_begin(h);
          const GateId hx = fanins[hb];
          const GateId hy = fanins[hb + 1];
          const GateId other = hx == p ? hy : (hy == p ? hx : kNoGate);
          if (other == kNoGate || other == p) continue;
          if (pos[other] >= i && rep_[other] == kWideT) continue;
          po.c = h;
          emitted[h] = 1;
          break;
        }
      }
    }
    plan_.push_back(po);
  }
}

double BitSliceEngine::time_ps(const BitSliceState& s, GateId g,
                               std::size_t lane) const {
  switch (rep_[g]) {
    case kWideT:
      return s.times[static_cast<std::size_t>(slot_[g]) * s.padded + lane];
    case kBimodalT:
      return value(s, g, lane) ? t1_[g] : t0_[g];
    default:
      return t0_[g];
  }
}

void BitSliceEngine::lane_times(const BitSliceState& s, GateId g,
                                double* out) const {
  switch (rep_[g]) {
    case kWideT:
      std::copy_n(
          s.times.data() + static_cast<std::size_t>(slot_[g]) * s.padded,
          s.count, out);
      return;
    case kBimodalT:
      for (std::size_t l = 0; l < s.count; ++l) out[l] = time_ps(s, g, l);
      return;
    default:
      std::fill_n(out, s.count, t0_[g]);
  }
}

void BitSliceEngine::race_deltas(const BitSliceState& s, GateId g0,
                                 GateId g1, double* out,
                                 std::size_t stride) const {
  if (rep_[g0] == kWideT && rep_[g1] == kWideT) {
    const double* const p0 =
        s.times.data() + static_cast<std::size_t>(slot_[g0]) * s.padded;
    const double* const p1 =
        s.times.data() + static_cast<std::size_t>(slot_[g1]) * s.padded;
    for (std::size_t l = 0; l < s.count; ++l) out[l * stride] = p1[l] - p0[l];
    return;
  }
  for (std::size_t l = 0; l < s.count; ++l) {
    out[l * stride] = time_ps(s, g1, l) - time_ps(s, g0, l);
  }
}

void BitSliceEngine::prepare(BitSliceState& out, std::size_t count) const {
  if (count == 0) {
    throw std::invalid_argument("BitSliceEngine::run: empty batch");
  }
  const std::size_t n = cn_->num_gates();
  out.count = count;
  out.nwords = (count + 63) / 64;
  // A one-word batch pads only to the 8-lane vector block: the verifier's
  // 8-challenge PUF call would otherwise compute and store 64 lanes.  A
  // lane-delay run computes live lanes only, so its one-word rows are
  // `count` long.
  out.padded = out.nwords != 1 ? out.nwords * 64
               : shared_       ? (count + 7) & ~std::size_t{7}
                               : count;
  // Re-zeroing a same-size buffer is wasted work: the value pass rewrites
  // every scheduled gate's words, and gates outside the schedule (or
  // kConst0) are never written after the first zero-fill, so they still
  // read 0 from the previous run — as long as the previous run was this
  // engine (another netlist's schedule leaves different gates untouched).
  const std::size_t vneed = n * out.nwords;
  if (out.values.size() != vneed || out.owner != id_) {
    out.values.assign(vneed, 0);
    out.owner = id_;
  }
  const std::size_t tneed = wide_count_ * out.padded;
  if (out.times.size() != tneed) out.times.assign(tneed, 0.0);
}

template <bool kLaneDelays>
void BitSliceEngine::run_impl(const std::uint64_t* input_words,
                              std::size_t count,
                              const BatchDelays* lane_delays,
                              BitSliceState& out) const {
  const CompiledNetlist& cn = *cn_;
  prepare(out, count);
  const std::size_t NW = out.nwords;
  const std::size_t P = out.padded;
  std::uint64_t* const values = out.values.data();
  double* const times = out.times.data();
  const GateId* const fanins = cn.fanins().data();
  const double* const ld_rise =
      kLaneDelays ? lane_delays->rise_ps.data() : nullptr;
  const double* const ld_fall =
      kLaneDelays ? lane_delays->fall_ps.data() : nullptr;

  const auto src_of = [&](GateId f) {
    Src s;
    s.mode = rep_[f];
    s.t0 = t0_[f];
    s.t1 = t1_[f];
    s.vw = values + static_cast<std::size_t>(f) * NW;
    if (s.mode == kWideT) {
      s.wide = times + static_cast<std::size_t>(slot_[f]) * P;
    }
    return s;
  };

  switch (NW) {
    case 1: value_pass<1>(cn, input_words, values, NW); break;
    case 2: value_pass<2>(cn, input_words, values, NW); break;
    case 4: value_pass<4>(cn, input_words, values, NW); break;
    case 8: value_pass<8>(cn, input_words, values, NW); break;
    case 16: value_pass<16>(cn, input_words, values, NW); break;
    default: value_pass<0>(cn, input_words, values, NW); break;
  }

  // ---- phase 2: settle times for wide gates, in plan order.  Times never
  // feed back into values, so the phases separate cleanly — and the
  // separation is what lets fused ops compute a later-scheduled gate's
  // times (its value words already exist).
  //
  // The kernel arguments are materialized once into the state's ExecPlan
  // and replayed while the stamp holds (same engine, lane count, buffer
  // addresses, delay rows) — per-gate setup vanishes from the steady-state
  // batch loop.
  ExecPlan* ep = static_cast<ExecPlan*>(out.exec.get());
  if (ep == nullptr || ep->owner != id_ || ep->count != count ||
      ep->values != values || ep->times != times || ep->ldr != ld_rise ||
      ep->ldf != ld_fall) {
    auto fresh = std::make_shared<ExecPlan>();
    ep = fresh.get();
    out.exec = std::move(fresh);
    ep->owner = id_;
    ep->count = count;
    ep->values = values;
    ep->times = times;
    ep->ldr = ld_rise;
    ep->ldf = ld_fall;
    ep->ops.reserve(plan_.size());

    const auto fill_out = [&](GateId h, FusedGate& fg) {
      fg.vw = values + static_cast<std::size_t>(h) * NW;
      fg.r = shared_ ? rise_[h] : 0.0;
      fg.f = shared_ ? fall_[h] : 0.0;
      fg.rp = kLaneDelays ? ld_rise + static_cast<std::size_t>(h) * count
                          : nullptr;
      fg.fp = kLaneDelays ? ld_fall + static_cast<std::size_t>(h) * count
                          : nullptr;
      fg.tp = times + static_cast<std::size_t>(slot_[h]) * P;
      const BatchOp ho = cn.op(h);
      fg.cinv = (ho == BatchOp::kOr2 || ho == BatchOp::kNor2) ? 0x00 : 0xFF;
    };

    for (const PlanOp& po : plan_) {
      const GateId g = po.p;
      const std::uint32_t fb = cn.fanin_begin(g);
      const BatchOp op = cn.op(g);
      PreOp q;
      fill_out(g, q.fc.P);

      switch (op) {
        case BatchOp::kAnd2:
        case BatchOp::kNand2:
        case BatchOp::kOr2:
        case BatchOp::kNor2:
          // A lone AND-family gate is a fused step with neither S nor C.
          q.kind = PreOp::kFused;
          q.fc.x = src_of(fanins[fb]);
          q.fc.y = src_of(fanins[fb + 1]);
          if (po.s != kNoGate) {
            q.fc.has_s = true;
            fill_out(po.s, q.fc.S);
          }
          if (po.c != kNoGate) {
            q.fc.has_c = true;
            fill_out(po.c, q.fc.C);
            const std::uint32_t cb = cn.fanin_begin(po.c);
            const GateId other =
                fanins[cb] == g ? fanins[cb + 1] : fanins[cb];
            q.fc.g = src_of(other);
          }
          break;
        case BatchOp::kBuf:
        case BatchOp::kNot:
          q.kind = PreOp::kUnary;
          q.fc.x = src_of(fanins[fb]);
          break;
        case BatchOp::kMux:
          q.kind = PreOp::kMux;
          q.fc.x = src_of(fanins[fb]);
          q.fc.y = src_of(fanins[fb + 1]);
          q.fc.g = src_of(fanins[fb + 2]);
          break;
        case BatchOp::kXor2:
        case BatchOp::kXnor2:
          q.kind = PreOp::kXor2;
          q.fc.x = src_of(fanins[fb]);
          q.fc.y = src_of(fanins[fb + 1]);
          break;
        case BatchOp::kAndN:
        case BatchOp::kNandN:
        case BatchOp::kOrN:
        case BatchOp::kNorN:
        case BatchOp::kXorN:
        case BatchOp::kXnorN: {
          const bool is_xor =
              (op == BatchOp::kXorN || op == BatchOp::kXnorN);
          q.kind = is_xor ? PreOp::kNaryXor : PreOp::kNaryAnd;
          q.ctrl = (op == BatchOp::kOrN || op == BatchOp::kNorN);
          q.nf = cn.fanin_count(g);
          q.nary_off = static_cast<std::uint32_t>(ep->nary.size());
          for (std::uint32_t k = 0; k < q.nf; ++k) {
            ep->nary.push_back(src_of(fanins[fb + k]));
          }
          break;
        }
        default:
          continue;  // inputs/constants never enter the plan
      }
      ep->ops.push_back(q);
    }
  }

  for (const PreOp& q : ep->ops) {
    const FusedGate& og = q.fc.P;
    switch (q.kind) {
      case PreOp::kFused:
        fused_run<kLaneDelays>(q.fc, count, P);
        break;
      case PreOp::kUnary:
        wide_unary<kLaneDelays>(q.fc.x, og.vw, og.r, og.f, og.rp, og.fp,
                                og.tp, count, P);
        break;
      case PreOp::kMux:
        wide_mux<kLaneDelays>(q.fc.x, q.fc.y, q.fc.g, og.vw, og.r, og.f,
                              og.rp, og.fp, og.tp, count, P);
        break;
      case PreOp::kXor2:
        wide_xor2<kLaneDelays>(q.fc.x, q.fc.y, og, count, P);
        break;
      case PreOp::kNaryAnd:
        wide_nary_and<kLaneDelays>(ep->nary.data() + q.nary_off, q.nf, og.vw,
                                   q.ctrl, og.r, og.f, og.rp, og.fp, og.tp,
                                   count, P);
        break;
      case PreOp::kNaryXor:
        wide_nary_xor<kLaneDelays>(ep->nary.data() + q.nary_off, q.nf, og.vw,
                                   og.r, og.f, og.rp, og.fp, og.tp, count, P);
        break;
    }
  }
}

void BitSliceEngine::run(const std::uint64_t* input_words, std::size_t count,
                         BitSliceState& out) const {
  if (!shared_) {
    throw std::logic_error(
        "BitSliceEngine: shared-delay run on a lane-delay engine");
  }
  obs::Span span = trace_bitslice(count, cn_->num_gates());
  run_impl<false>(input_words, count, nullptr, out);
}

void BitSliceEngine::run(const std::uint64_t* input_words, std::size_t count,
                         const BatchDelays& delays, BitSliceState& out) const {
  if (shared_) {
    throw std::logic_error(
        "BitSliceEngine: lane-delay run on a shared-delay engine");
  }
  if (delays.batch != count ||
      delays.rise_ps.size() != cn_->num_gates() * count ||
      delays.fall_ps.size() != cn_->num_gates() * count) {
    throw std::invalid_argument(
        "BitSliceEngine::run: wrong per-lane delay count");
  }
  obs::Span span = trace_bitslice(count, cn_->num_gates());
  run_impl<true>(input_words, count, &delays, out);
}

}  // namespace pufatt::timingsim

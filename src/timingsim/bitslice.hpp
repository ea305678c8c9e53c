// Bit-sliced fleet evaluation: 64 evaluations ("lanes") per machine word.
//
// The batched evaluation path beside the scalar reference engine
// (timing_sim.hpp).  Logic VALUES are packed 64 lanes per `uint64_t`, so
// every word operation of the value pass evaluates one gate for 64 devices
// or challenges at once.  Settle TIMES are real numbers and cannot be
// bit-sliced without giving up the repo's exactness contract (engines must
// agree double-for-double so near-tie races decide identically), so the
// time pass keeps per-lane doubles — but classifies every gate's time
// representation first:
//
//   * kConstT   — the settle time is the same in every lane (inputs,
//                 constants, and any gate whose fanin combinations all
//                 yield one time).  Zero storage, zero per-lane work.
//   * kBimodalT — the time is a function of the gate's own value
//                 (t = v ? t1 : t0).  Zero storage; consumers rebuild the
//                 lane times from two broadcasts and the value word.  In
//                 the ALU PUF adders every input-fed XOR/AND classifies
//                 this way.
//   * kWideT    — genuinely lane-dependent; 64 doubles per word of lanes,
//                 computed with exactly the scalar engine's arithmetic
//                 (same selections and single add per lane => identical
//                 doubles => identical arbiter decisions).
//
// Classification happens once per (netlist, shared DelaySet) by
// enumerating fanin value combinations; it is conservative (a gate whose
// enumerated times disagree is wide even if the disagreeing combinations
// are unreachable), which can only cost speed, never correctness.  With
// per-lane delays (the noisy device path) every computed gate is wide and
// the classification shortcut vanishes — the win there is the word-wide
// value pass and mask-driven delay selection.
//
// The value pass walks the compiled netlist's flat value program (one
// record per gate, shared by every engine over that netlist).  Both served
// paths run exactly 8 lanes per PUF() call (the verifier in shared mode,
// the simulated device in lane-delay mode), so the wide time stride is one
// 8-lane vector block (support/simd.hpp) and each fused step is one trip
// of its lane loop, with its sources fetched by their run-time mode rather
// than through a per-mode template dispatch.
//
// Lane layout: lane l of word w is evaluation index w*64 + l.  Inputs
// arrive as transposed challenge words from `pack_input_words`
// (`words[i*nwords + w]` = input bit i across lanes); race margins come
// back per lane through `race_deltas` (the device path reads its race
// times as lane rows through `lane_times`).
// Input arrival-time overrides
// (`input_times_ps`) are not supported — every PUF path launches inputs at
// t=0, which is what the engine assumes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "support/bitvec.hpp"
#include "timingsim/compiled_netlist.hpp"
#include "timingsim/timing_sim.hpp"

namespace pufatt::timingsim {

/// Evaluation-engine selector for batch entry points (AluPuf /
/// PufDevice / gen-crps).  Both produce identical doubles
/// and therefore identical responses; they differ only in speed.
enum class BatchEngine : std::uint8_t {
  kScalar,    ///< one scalar `run` per lane (reference path)
  kBitslice,  ///< BitSliceEngine (the default)
};

/// Packs `count` challenges into transposed lane words:
/// `out[i*nwords + w]` holds input bit i of lanes [w*64, w*64+64), lane l
/// in bit l.  `nwords = ceil(count/64)`; tail lanes are zero.  Every
/// challenge must have exactly `num_inputs` bits (std::invalid_argument).
void pack_input_words(const support::BitVector* challenges, std::size_t count,
                      std::size_t num_inputs, std::vector<std::uint64_t>& out);

/// Word form of the above for netlists of at most 64 inputs: input i of
/// challenge x is bit i of `challenges[x]` (bits at or above `num_inputs`
/// are ignored).  Writes `num_inputs * ceil(count/64)` words to `out`, in
/// the same layout; allocates nothing.  1..8 challenges (one PUF() call)
/// skip the 64x64 transpose.
void pack_input_words(const std::uint64_t* challenges, std::size_t count,
                      std::size_t num_inputs, std::uint64_t* out);

/// Result of one bit-sliced run.  Value words for every gate; wide time
/// lanes only for gates the engine classified kWideT (slot-indexed — read
/// through the engine's accessors, which know each gate's representation).
/// Gates outside the observed cone read as value 0 / time 0.
struct BitSliceState {
  std::size_t count = 0;   ///< live lanes
  std::size_t nwords = 0;  ///< ceil(count/64)
  /// Wide-lane stride and shared-mode loop limit: nwords * 64, except that
  /// a batch within one word keeps only `count` rounded up to 8 (one vector
  /// block) in shared mode and `count` itself in lane-delay mode, so short
  /// batches neither compute nor store 64 lanes.
  std::size_t padded = 0;
  std::vector<std::uint64_t> values;  ///< [gate*nwords + w]
  std::vector<double> times;          ///< [wide_slot*padded + lane]
  /// Id of the engine that last filled this state (0 = none).  Same engine
  /// + same shape lets a rerun skip re-zeroing `values`: unscheduled gates
  /// were zeroed once and are never written, scheduled gates are fully
  /// rewritten.  Ids are never reused (an address could be, by a later
  /// engine), so a caller may keep one state across many engines.
  std::uint64_t owner = 0;
  /// Materialized time-pass dispatch (kernel arguments resolved to
  /// pointers), rebuilt whenever the engine, lane count, buffer addresses,
  /// or per-lane delay rows change.  Fleet workloads reuse one state across
  /// thousands of same-shape batches, so the per-gate argument setup
  /// amortizes to zero.  Opaque: the entry types live in the engine's TU.
  std::shared_ptr<void> exec;
};

/// Reusable bit-sliced evaluator for one compiled netlist.
///
/// Two modes, fixed at construction:
///  * shared-delay mode bakes one DelaySet into the gate plan (time-rep
///    classification above) — the deterministic emulation path;
///  * lane-delay mode takes per-lane BatchDelays at run time (every
///    computed gate wide) — the noisy device path.
/// The CompiledNetlist (and in shared mode nothing else) must outlive the
/// engine.
class BitSliceEngine {
 public:
  /// Lane-delay mode.
  explicit BitSliceEngine(const CompiledNetlist& compiled);

  /// Shared-delay mode; `delays` are copied into the plan.
  BitSliceEngine(const CompiledNetlist& compiled, const DelaySet& delays);

  bool shared_mode() const { return shared_; }

  /// Gates carrying per-lane double time lanes (diagnostics: the fraction
  /// of the netlist that still pays per-lane time arithmetic).
  std::size_t num_wide() const { return wide_count_; }

  /// Time-pass steps after full-adder fusion (diagnostics: num_wide()
  /// minus the gates folded into a sibling's step).
  std::size_t num_plan_ops() const { return plan_.size(); }

  /// Shared-delay run.  `input_words` as produced by pack_input_words for
  /// this netlist's input count; `count` live lanes (any count >= 1).
  void run(const std::uint64_t* input_words, std::size_t count,
           BitSliceState& out) const;

  /// Lane-delay run; `delays.batch` must equal `count`.
  void run(const std::uint64_t* input_words, std::size_t count,
           const BatchDelays& delays, BitSliceState& out) const;

  bool value(const BitSliceState& s, netlist::GateId g,
             std::size_t lane) const {
    return (s.values[static_cast<std::size_t>(g) * s.nwords + (lane >> 6)] >>
            (lane & 63)) &
           1ULL;
  }

  double time_ps(const BitSliceState& s, netlist::GateId g,
                 std::size_t lane) const;

  /// Gate g's time in every live lane: `out[l]` = time_ps(s, g, l) for
  /// l < s.count.
  void lane_times(const BitSliceState& s, netlist::GateId g,
                  double* out) const;

  /// Race margins: `out[l * stride]` = t[g1] - t[g0] for every live lane
  /// l (the arbiter decides bit 1 when it is > 0).
  void race_deltas(const BitSliceState& s, netlist::GateId g0,
                   netlist::GateId g1, double* out, std::size_t stride) const;

 private:
  enum TimeRep : std::uint8_t { kConstT = 0, kBimodalT = 1, kWideT = 2 };

  /// One time-pass step: a wide gate `p`, optionally fused with a sibling
  /// XOR `s` sharing both fanins (a full adder's sum next to its carry
  /// propagate — the max(xa, xb) is shared) and a 2-input AND-family
  /// consumer `c` of p (the carry-out — p's lanes forward in registers
  /// instead of round-tripping through memory).  Fusion only reorders
  /// whole-gate computations within dataflow order, so results are
  /// unchanged; kNoGate marks an absent slot.
  struct PlanOp {
    netlist::GateId p;
    netlist::GateId s;
    netlist::GateId c;
  };
  static constexpr netlist::GateId kNoGate =
      static_cast<netlist::GateId>(-1);

  void init_common();
  void classify_shared(const DelaySet& delays);
  void build_plan();
  void prepare(BitSliceState& out, std::size_t count) const;
  template <bool kLaneDelays>
  void run_impl(const std::uint64_t* input_words, std::size_t count,
                const BatchDelays* lane_delays, BitSliceState& out) const;

  const CompiledNetlist* cn_;
  std::uint64_t id_;  ///< unique per constructed engine (copies share it)
  bool shared_ = false;
  std::size_t wide_count_ = 0;
  // Per-gate plan (indexed by gate id).
  std::vector<std::uint8_t> rep_;
  std::vector<double> t0_;            ///< kConstT time / kBimodalT value-0 time
  std::vector<double> t1_;            ///< kBimodalT value-1 time
  std::vector<std::uint32_t> slot_;   ///< kWideT time-lane slot
  std::vector<double> rise_, fall_;   ///< shared-mode delays (baked copy)
  std::vector<PlanOp> plan_;          ///< time-pass order (one entry per
                                      ///< unfused wide gate / fused group)
};

}  // namespace pufatt::timingsim

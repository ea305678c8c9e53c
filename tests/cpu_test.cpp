#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <string>
#include <vector>

#include "cpu/assembler.hpp"
#include "cpu/isa.hpp"
#include "cpu/machine.hpp"

namespace pufatt::cpu {
namespace {

// -------------------------------------------------------------------- ISA

TEST(Isa, EncodeDecodeRoundTripAllFormats) {
  const std::vector<Instruction> samples = {
      {Opcode::kAdd, 1, 2, 3, 0},    {Opcode::kSub, 15, 14, 13, 0},
      {Opcode::kAddi, 4, 5, 0, -42}, {Opcode::kLui, 6, 0, 0, 0x1234},
      {Opcode::kLw, 7, 8, 0, 100},   {Opcode::kSw, 0, 9, 10, -8},
      {Opcode::kBeq, 0, 1, 2, -100}, {Opcode::kBge, 0, 3, 4, 2047},
      {Opcode::kJal, 15, 0, 0, -5000}, {Opcode::kJalr, 1, 2, 0, 16},
      {Opcode::kHalt, 0, 0, 0, 0},   {Opcode::kPstart, 0, 0, 0, 0},
      {Opcode::kPend, 5, 0, 0, 0},   {Opcode::kHread, 6, 0, 0, 0},
      {Opcode::kRdcyc, 7, 0, 0, 0},
  };
  for (const auto& inst : samples) {
    const auto decoded = decode(encode(inst));
    EXPECT_EQ(decoded.op, inst.op);
    EXPECT_EQ(decoded.rd, inst.rd) << mnemonic(inst.op);
    EXPECT_EQ(decoded.rs1, inst.rs1) << mnemonic(inst.op);
    EXPECT_EQ(decoded.rs2, inst.rs2) << mnemonic(inst.op);
    EXPECT_EQ(decoded.imm, inst.imm) << mnemonic(inst.op);
  }
}

TEST(Isa, RejectsUnknownOpcode) {
  EXPECT_THROW(decode(0xFF000000u), std::invalid_argument);
  EXPECT_THROW(decode(0x00000000u), std::invalid_argument);
}

TEST(Isa, RejectsOutOfRangeFields) {
  EXPECT_THROW(encode({Opcode::kAdd, 16, 0, 0, 0}), std::invalid_argument);
  EXPECT_THROW(encode({Opcode::kAddi, 1, 1, 0, 1 << 20}),
               std::invalid_argument);
  EXPECT_THROW(encode({Opcode::kBeq, 0, 1, 2, 5000}), std::invalid_argument);
}

TEST(Isa, CycleCosts) {
  EXPECT_EQ(cycle_cost(Opcode::kAdd), 1u);
  EXPECT_EQ(cycle_cost(Opcode::kLw), 2u);
  EXPECT_EQ(cycle_cost(Opcode::kMul), 3u);
  EXPECT_GT(cycle_cost(Opcode::kPend), 10u);
}

// -------------------------------------------------------------- Assembler

TEST(Assembler, BasicProgram) {
  const auto result = assemble(R"(
    ; compute 6*7 the slow way
    start: addi r1, r0, 6
           addi r2, r0, 7
           mul  r3, r1, r2
           halt
  )");
  EXPECT_EQ(result.words.size(), 4u);
  EXPECT_EQ(result.labels.at("start"), 0u);
}

TEST(Assembler, LabelsResolveToRelativeOffsets) {
  const auto result = assemble(R"(
        addi r1, r0, 3
  loop: addi r1, r1, -1
        bne  r1, r0, loop
        halt
  )");
  const auto branch = decode(result.words[2]);
  EXPECT_EQ(branch.op, Opcode::kBne);
  EXPECT_EQ(branch.imm, -1);
}

TEST(Assembler, MemoryOperands) {
  const auto result = assemble("lw r2, 8(r3)\nsw r2, -4(r5)\n");
  const auto lw = decode(result.words[0]);
  EXPECT_EQ(lw.rd, 2);
  EXPECT_EQ(lw.rs1, 3);
  EXPECT_EQ(lw.imm, 8);
  const auto sw = decode(result.words[1]);
  EXPECT_EQ(sw.rs2, 2);
  EXPECT_EQ(sw.rs1, 5);
  EXPECT_EQ(sw.imm, -4);
}

TEST(Assembler, WordDirectiveAndHex) {
  const auto result = assemble(".word 0xdeadbeef\n.word -1\n");
  EXPECT_EQ(result.words[0], 0xdeadbeefu);
  EXPECT_EQ(result.words[1], 0xffffffffu);
}

TEST(Assembler, CommentsAndBlankLines) {
  const auto result = assemble(R"(
    # full line comment

    addi r1, r0, 1  ; trailing comment
  )");
  EXPECT_EQ(result.words.size(), 1u);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  try {
    assemble("addi r1, r0, 1\nbogus r1\n");
    FAIL() << "expected AssemblyError";
  } catch (const AssemblyError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(Assembler, RejectsBadInput) {
  EXPECT_THROW(assemble("addi r1, r0\n"), AssemblyError);       // arity
  EXPECT_THROW(assemble("addi r99, r0, 1\n"), AssemblyError);   // register
  EXPECT_THROW(assemble("beq r1, r0, nowhere\n"), AssemblyError);
  EXPECT_THROW(assemble("lw r1, r2\n"), AssemblyError);         // mem syntax
  EXPECT_THROW(assemble("x: halt\nx: halt\n"), AssemblyError);  // dup label
  EXPECT_THROW(assemble("123bad: halt\n"), AssemblyError);      // label name
}

TEST(Assembler, ForwardReferences) {
  const auto result = assemble(R"(
        jal r0, end
        halt
  end:  halt
  )");
  const auto jal = decode(result.words[0]);
  EXPECT_EQ(jal.imm, 2);
}

// ---------------------------------------------------------------- Machine

Machine run_program(const std::string& source,
                    std::uint64_t max_cycles = 1'000'000) {
  Machine machine(4096);
  machine.load(assemble(source).words);
  const auto result = machine.run(max_cycles);
  EXPECT_TRUE(result.halted);
  return machine;
}

TEST(Machine, ArithmeticAndR0) {
  const auto m = run_program(R"(
    addi r1, r0, 21
    add  r2, r1, r1
    sub  r3, r2, r1
    add  r0, r1, r1   ; writes to r0 are discarded
    halt
  )");
  EXPECT_EQ(m.reg(2), 42u);
  EXPECT_EQ(m.reg(3), 21u);
  EXPECT_EQ(m.reg(0), 0u);
}

TEST(Machine, LogicAndShifts) {
  const auto m = run_program(R"(
    addi r1, r0, 0xF0
    addi r2, r0, 0x0F
    and  r3, r1, r2
    or   r4, r1, r2
    xor  r5, r1, r2
    slli r6, r2, 4
    srli r7, r1, 4
    addi r8, r0, -16
    srai r9, r8, 2
    halt
  )");
  EXPECT_EQ(m.reg(3), 0u);
  EXPECT_EQ(m.reg(4), 0xFFu);
  EXPECT_EQ(m.reg(5), 0xFFu);
  EXPECT_EQ(m.reg(6), 0xF0u);
  EXPECT_EQ(m.reg(7), 0x0Fu);
  EXPECT_EQ(m.reg(9), static_cast<std::uint32_t>(-4));
}

TEST(Machine, SignedVsUnsignedCompare) {
  const auto m = run_program(R"(
    addi r1, r0, -1
    addi r2, r0, 1
    slt  r3, r1, r2   ; -1 < 1 signed -> 1
    sltu r4, r1, r2   ; 0xffffffff < 1 unsigned -> 0
    halt
  )");
  EXPECT_EQ(m.reg(3), 1u);
  EXPECT_EQ(m.reg(4), 0u);
}

TEST(Machine, LuiBuildsConstants) {
  const auto m = run_program(R"(
    lui  r1, 0xdead
    ori  r1, r1, 0xbeef
    halt
  )");
  EXPECT_EQ(m.reg(1), 0xdeadbeefu);
}

TEST(Machine, LoadStore) {
  const auto m = run_program(R"(
    addi r1, r0, 100
    addi r2, r0, 1234
    sw   r2, 0(r1)
    sw   r2, 1(r1)
    lw   r3, 1(r1)
    halt
  )");
  EXPECT_EQ(m.reg(3), 1234u);
  EXPECT_EQ(m.mem(100), 1234u);
  EXPECT_EQ(m.mem(101), 1234u);
}

TEST(Machine, LoopAndBranches) {
  // Sum 1..10 = 55.
  const auto m = run_program(R"(
        addi r1, r0, 10
        addi r2, r0, 0
  loop: add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
  )");
  EXPECT_EQ(m.reg(2), 55u);
}

TEST(Machine, JalAndJalrSubroutine) {
  const auto m = run_program(R"(
        addi r1, r0, 5
        jal  r15, double
        add  r3, r2, r0
        halt
  double:
        add  r2, r1, r1
        jalr r0, r15, 0
  )");
  EXPECT_EQ(m.reg(3), 10u);
}

TEST(Machine, CycleCountingMatchesCosts) {
  Machine m(1024);
  m.load(assemble(R"(
    addi r1, r0, 1   ; 1
    lw   r2, 0(r0)   ; 2
    mul  r3, r1, r1  ; 3
    halt             ; 1
  )").words);
  const auto result = m.run();
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(result.cycles, 7u);
}

TEST(Machine, TakenBranchCostsExtra) {
  Machine taken(1024), not_taken(1024);
  taken.load(assemble("beq r0, r0, 2\nhalt\nhalt\n").words);
  not_taken.load(assemble("bne r1, r0, 2\nhalt\nhalt\n").words);
  EXPECT_EQ(taken.run().cycles, not_taken.run().cycles + kTakenBranchPenalty);
}

TEST(Machine, WallTimeFollowsClock) {
  Machine m(64);
  m.set_clock_mhz(100.0);
  EXPECT_DOUBLE_EQ(m.wall_time_us(100), 1.0);
  m.set_clock_mhz(200.0);
  EXPECT_DOUBLE_EQ(m.wall_time_us(100), 0.5);
  EXPECT_DOUBLE_EQ(m.cycle_ps(), 5000.0);
  EXPECT_THROW(m.set_clock_mhz(0.0), MachineError);
}

TEST(Machine, RdcycReadsCycleCounter) {
  const auto m = run_program(R"(
    addi r1, r0, 1
    addi r1, r0, 1
    rdcyc r2
    halt
  )");
  EXPECT_EQ(m.reg(2), 3u);  // two addis + rdcyc itself charged first
}

TEST(Machine, MaxCyclesStopsRunawayPrograms) {
  Machine m(64);
  m.load(assemble("spin: jal r0, spin\n").words);
  const auto result = m.run(1000);
  EXPECT_FALSE(result.halted);
  EXPECT_GE(result.cycles, 1000u);
}

TEST(Machine, Traps) {
  Machine m(64);
  m.load(assemble("lw r1, 0(r0)\nhalt\n").words);
  m.set_reg(1, 0);
  // Bad memory access.
  Machine bad(64);
  bad.load(assemble("lw r1, 9999(r0)\nhalt\n").words);
  EXPECT_THROW(bad.run(), MachineError);
  // Decode fault on data.
  Machine data(64);
  data.load({0x00000000u});
  EXPECT_THROW(data.run(), MachineError);
  // PUF instructions without a PUF block.
  Machine nopuf(64);
  nopuf.load(assemble("pstart\nhalt\n").words);
  EXPECT_THROW(nopuf.run(), MachineError);
  // pend without pstart.
  Machine nostart(64);
  nostart.load(assemble("pend r1\nhalt\n").words);
  struct NullPort : PufPort {
    void start() override {}
    void feed(std::uint64_t, double) override {}
    std::uint32_t finish(std::vector<std::uint32_t>&) override { return 0; }
  } port;
  nostart.attach_puf(&port);
  EXPECT_THROW(nostart.run(), MachineError);
  // hread on empty FIFO.
  Machine nofifo(64);
  nofifo.load(assemble("hread r1\nhalt\n").words);
  nofifo.attach_puf(&port);
  EXPECT_THROW(nofifo.run(), MachineError);
}

// Registers, pc and the cycle count as a fault left them.
struct Snapshot {
  std::uint32_t pc;
  std::uint64_t cycles;
  std::array<std::uint32_t, 16> regs;
};

Snapshot snapshot(const Machine& m) {
  Snapshot s{m.pc(), m.cycles(), {}};
  for (unsigned i = 0; i < 16; ++i) s.regs[i] = m.reg(i);
  return s;
}

// Runs `source` on a 64-word machine (with a PUF port attached) and
// expects `message`; returns the machine's state after the fault.
Snapshot fault_state(const std::string& source, const std::string& message,
                     const std::vector<std::uint32_t>& extra = {}) {
  struct NullPort : PufPort {
    void start() override {}
    void feed(std::uint64_t, double) override {}
    std::uint32_t finish(std::vector<std::uint32_t>&) override { return 0; }
  };
  static NullPort port;
  Machine m(64);
  auto words = assemble(source).words;
  words.insert(words.end(), extra.begin(), extra.end());
  m.load(words);
  m.attach_puf(&port);
  try {
    m.run();
    ADD_FAILURE() << "expected: " << message;
  } catch (const MachineError& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
  return snapshot(m);
}

TEST(Machine, FaultLeavesPinnedState) {
  // What a trap leaves observable (values pinned from the step-at-a-time
  // interpreter): pc at the faulting instruction, its cost charged if it
  // decoded, earlier register writes kept.
  const std::string prologue = "addi r1, r0, 7\naddi r2, r0, 9\n";
  struct Case {
    std::string body;
    std::vector<std::uint32_t> extra;
    std::string message;
    std::uint32_t pc;
    std::uint64_t cycles;
  };
  const Case cases[] = {
      {"", {0x00000000u}, "decode fault at pc 2: decode: unknown opcode 0", 2,
       2},
      {"lw r3, 9999(r0)\n", {}, "memory read out of range", 2, 4},
      {"sw r2, 64(r0)\n", {}, "memory write out of range", 2, 4},
      {"jal r3, 100\n", {}, "pc out of memory at 102", 102, 4},
      {"hread r3\n", {}, "hread on empty FIFO", 2, 3},
      {"pend r3\n", {}, "pend outside PUF mode", 2, 42},
  };
  for (const auto& c : cases) {
    const Snapshot s = fault_state(prologue + c.body, c.message, c.extra);
    EXPECT_EQ(s.pc, c.pc) << c.message;
    EXPECT_EQ(s.cycles, c.cycles) << c.message;
    std::array<std::uint32_t, 16> regs{};
    regs[1] = 7;
    regs[2] = 9;
    // Only jal writes its link register before control leaves memory.
    if (c.body.starts_with("jal")) regs[3] = 3;
    EXPECT_EQ(s.regs, regs) << c.message;
  }
}

TEST(Machine, ExhaustedBudgetLeavesPinnedState) {
  Machine m(64);
  m.load(assemble(R"(
          addi r2, r0, 5
    spin: addi r1, r1, 1
          jal  r0, spin
  )").words);
  // addi (1 cycle), then 3-cycle passes: the budget ends on a pass
  // boundary, and the second run's ends just after an addi.
  const auto result = m.run(1000);
  EXPECT_FALSE(result.halted);
  EXPECT_EQ(result.cycles, 1000u);
  EXPECT_EQ(m.cycles(), 1000u);
  EXPECT_EQ(m.pc(), 1u);
  EXPECT_EQ(m.reg(1), 333u);
  EXPECT_EQ(m.reg(2), 5u);
  // A second run continues from there.
  const auto more = m.run(10);
  EXPECT_EQ(more.cycles, 1010u);
  EXPECT_EQ(m.pc(), 2u);
  EXPECT_EQ(m.reg(1), 337u);
}

TEST(Machine, UnboundedBudgetAfterEarlierRunReachesHalt) {
  // cycles() + max_cycles must saturate, not wrap: a machine that has run
  // before still gets the whole budget.
  Machine m(64);
  m.load(assemble(R"(
          addi r2, r0, 50
    loop: addi r1, r1, 1
          blt  r1, r2, loop
          halt
  )").words);
  EXPECT_FALSE(m.run(10).halted);
  const auto result = m.run(std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(m.reg(1), 50u);
  EXPECT_EQ(result.cycles, 1u + 50u * 2u + 49u + 1u);
}

// ------------------------------------------------- predecoded instructions

TEST(Machine, StoredInstructionReplacesOneAlreadyExecuted) {
  // Self-modifying code: the loop body overwrites its own first
  // instruction after running it once, so later passes must run the new
  // word, not the decoded form of the old one.
  Machine m(64);
  m.load(assemble(R"(
          addi r3, r0, 0
          lw   r5, 16(r0)      ; the replacement instruction word
          addi r4, r0, 3
    loop: addi r1, r1, 1       ; overwritten after the first pass
          addi r3, r3, 1
          sw   r5, 3(r0)
          blt  r3, r4, loop
          halt
  )").words);
  m.set_mem(16, assemble("addi r1, r1, 100").words[0]);
  const auto result = m.run();
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(m.reg(1), 201u);
  // addi+lw+addi, three 5-cycle passes, two taken branches, halt.
  EXPECT_EQ(result.cycles, 4u + 15u + 2u + 1u);

  // Writes from outside the program drop decoded words too: set_mem over
  // the executed loop head, and load over the whole image.
  m.reset();
  m.set_mem(3, assemble("addi r1, r1, 7").words[0]);
  m.set_mem(5, assemble("addi r0, r0, 0").words[0]);  // keep word 3
  m.run();
  EXPECT_EQ(m.reg(1), 21u);
  m.reset();
  m.load(assemble("addi r1, r0, 9\nhalt\n").words);
  m.run();
  EXPECT_EQ(m.reg(1), 9u);
}

TEST(Machine, StoredInvalidWordFaultsWhenReached) {
  // An executed instruction overwritten with a word that does not decode
  // faults with the usual message when control comes back to it.
  Machine m(64);
  m.load(assemble(R"(
          lui  r5, 0xFF00      ; opcode 0xFF: no such instruction
          addi r3, r0, 0
    loop: addi r3, r3, 1
          sw   r5, 2(r0)
          jal  r0, loop
          halt
  )").words);
  try {
    m.run();
    FAIL() << "expected a decode fault";
  } catch (const MachineError& e) {
    EXPECT_STREQ(e.what(), "decode fault at pc 2: decode: unknown opcode 255");
  }
  EXPECT_EQ(m.reg(3), 1u);
  Machine data(64);
  data.load({0x00000000u});
  try {
    data.run();
    FAIL() << "expected a decode fault";
  } catch (const MachineError& e) {
    EXPECT_STREQ(e.what(), "decode fault at pc 0: decode: unknown opcode 0");
  }
}

TEST(Machine, ResetPreservesMemory) {
  Machine m(64);
  m.load(assemble("addi r1, r0, 7\nsw r1, 32(r0)\nhalt\n").words);
  m.run();
  EXPECT_EQ(m.reg(1), 7u);
  m.reset();
  EXPECT_EQ(m.reg(1), 0u);
  EXPECT_EQ(m.pc(), 0u);
  EXPECT_EQ(m.cycles(), 0u);
  EXPECT_EQ(m.mem(32), 7u);
}

// ----------------------------------------------------------- PUF port path

class RecordingPort : public PufPort {
 public:
  void start() override {
    started = true;
    challenges.clear();
  }
  void feed(std::uint64_t challenge, double cycle_ps) override {
    challenges.push_back(challenge);
    last_cycle_ps = cycle_ps;
  }
  std::uint32_t finish(std::vector<std::uint32_t>& helper_words) override {
    helper_words = {0xAAA, 0xBBB};
    return 0x12345678;
  }
  bool started = false;
  std::vector<std::uint64_t> challenges;
  double last_cycle_ps = 0.0;
};

TEST(Machine, PufInstructionSequence) {
  Machine m(1024);
  RecordingPort port;
  m.attach_puf(&port);
  m.load(assemble(R"(
    lui  r1, 0x1111
    addi r2, r0, 0x222
    pstart
    add  r3, r1, r2     ; PUF-mode add: challenge = (r1 << 32) | r2
    pend r4
    hread r5
    hread r6
    halt
  )").words);
  m.run();
  EXPECT_TRUE(port.started);
  ASSERT_EQ(port.challenges.size(), 1u);
  EXPECT_EQ(port.challenges[0],
            (static_cast<std::uint64_t>(0x11110000u) << 32) | 0x222u);
  EXPECT_DOUBLE_EQ(port.last_cycle_ps, m.cycle_ps());
  // The add also produced its architectural result.
  EXPECT_EQ(m.reg(3), 0x11110000u + 0x222u);
  EXPECT_EQ(m.reg(4), 0x12345678u);
  EXPECT_EQ(m.reg(5), 0xAAAu);
  EXPECT_EQ(m.reg(6), 0xBBBu);
}

TEST(Machine, NormalModeAddDoesNotTouchPuf) {
  Machine m(1024);
  RecordingPort port;
  m.attach_puf(&port);
  m.load(assemble("add r1, r2, r3\nhalt\n").words);
  m.run();
  EXPECT_TRUE(port.challenges.empty());
}

TEST(Machine, PendLeavesPufMode) {
  Machine m(1024);
  RecordingPort port;
  m.attach_puf(&port);
  m.load(assemble(R"(
    pstart
    add  r1, r0, r0
    pend r2
    add  r3, r0, r0   ; normal mode again
    halt
  )").words);
  m.run();
  EXPECT_EQ(port.challenges.size(), 1u);
}

}  // namespace
}  // namespace pufatt::cpu

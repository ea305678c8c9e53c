#include "cpu/machine.hpp"

#include <array>

namespace pufatt::cpu {

Machine::Machine(std::size_t mem_words)
    : memory_(mem_words, 0), decoded_(mem_words) {}

void Machine::load(const std::vector<std::uint32_t>& words,
                   std::uint32_t base) {
  if (base + words.size() > memory_.size()) {
    throw MachineError("load: program does not fit in memory");
  }
  for (std::size_t i = 0; i < words.size(); ++i) {
    memory_[base + i] = words[i];
    decoded_[base + i].cost = 0;
  }
}

void Machine::set_clock_mhz(double mhz) {
  if (mhz <= 0.0) throw MachineError("clock frequency must be positive");
  clock_mhz_ = mhz;
}

std::uint32_t Machine::reg(unsigned index) const {
  if (index > 15) throw MachineError("register index out of range");
  return regs_[index];
}

void Machine::set_reg(unsigned index, std::uint32_t value) {
  if (index > 15) throw MachineError("register index out of range");
  if (index != 0) regs_[index] = value;
}

std::uint32_t Machine::mem(std::uint32_t addr) const {
  if (addr >= memory_.size()) throw MachineError("memory read out of range");
  return memory_[addr];
}

void Machine::set_mem(std::uint32_t addr, std::uint32_t value) {
  if (addr >= memory_.size()) throw MachineError("memory write out of range");
  memory_[addr] = value;
  decoded_[addr].cost = 0;
}

void Machine::reset() {
  regs_.fill(0);
  pc_ = 0;
  cycles_ = 0;
  puf_mode_ = false;
  halted_ = false;
  helper_fifo_.clear();
}

RunResult Machine::run(std::uint64_t max_cycles) {
  const std::uint64_t limit = cycles_ + max_cycles;
  halted_ = false;
  while (!halted_ && cycles_ < limit) {
    if (pc_ >= memory_.size()) {
      throw MachineError("pc out of memory at " + std::to_string(pc_));
    }
    Decoded& slot = decoded_[pc_];
    if (slot.cost == 0) {
      try {
        slot.inst = decode(memory_[pc_]);
      } catch (const std::invalid_argument& e) {
        throw MachineError(std::string("decode fault at pc ") +
                           std::to_string(pc_) + ": " + e.what());
      }
      slot.cost = cycle_cost(slot.inst.op);
    }
    // A copy: the instruction may overwrite (and so drop) its own slot.
    const Decoded step = slot;
    exec(step.inst, step.cost);
  }
  return RunResult{cycles_, halted_};
}

void Machine::exec(const Instruction& inst, std::uint32_t cost) {
  cycles_ += cost;
  const std::uint32_t a = regs_[inst.rs1];
  const std::uint32_t b = regs_[inst.rs2];
  const auto sa = static_cast<std::int32_t>(a);
  std::uint32_t next_pc = pc_ + 1;

  auto write = [&](std::uint32_t value) {
    if (inst.rd != 0) regs_[inst.rd] = value;
  };
  auto branch = [&](bool taken) {
    if (taken) {
      next_pc = pc_ + static_cast<std::uint32_t>(inst.imm);
      cycles_ += kTakenBranchPenalty;
    }
  };

  switch (inst.op) {
    case Opcode::kAdd:
      if (puf_mode_) {
        if (puf_ == nullptr) throw MachineError("PUF add without PUF block");
        puf_->feed((static_cast<std::uint64_t>(a) << 32) | b, cycle_ps());
      }
      // The ALU result is architecturally visible in both modes.
      write(a + b);
      break;
    case Opcode::kSub: write(a - b); break;
    case Opcode::kAnd: write(a & b); break;
    case Opcode::kOr: write(a | b); break;
    case Opcode::kXor: write(a ^ b); break;
    case Opcode::kSll: write(a << (b & 31)); break;
    case Opcode::kSrl: write(a >> (b & 31)); break;
    case Opcode::kSra:
      write(static_cast<std::uint32_t>(sa >> (b & 31)));
      break;
    case Opcode::kMul: write(a * b); break;
    case Opcode::kSlt:
      write(sa < static_cast<std::int32_t>(b) ? 1 : 0);
      break;
    case Opcode::kSltu: write(a < b ? 1 : 0); break;

    case Opcode::kAddi: write(a + static_cast<std::uint32_t>(inst.imm)); break;
    case Opcode::kAndi: write(a & static_cast<std::uint32_t>(inst.imm)); break;
    case Opcode::kOri: write(a | static_cast<std::uint32_t>(inst.imm)); break;
    case Opcode::kXori: write(a ^ static_cast<std::uint32_t>(inst.imm)); break;
    case Opcode::kSlli: write(a << (inst.imm & 31)); break;
    case Opcode::kSrli: write(a >> (inst.imm & 31)); break;
    case Opcode::kSrai:
      write(static_cast<std::uint32_t>(sa >> (inst.imm & 31)));
      break;
    case Opcode::kSlti:
      write(sa < inst.imm ? 1 : 0);
      break;
    case Opcode::kLui:
      write(static_cast<std::uint32_t>(inst.imm) << 16);
      break;

    case Opcode::kLw: {
      const std::uint32_t addr = a + static_cast<std::uint32_t>(inst.imm);
      write(mem(addr));
      break;
    }
    case Opcode::kSw: {
      const std::uint32_t addr = a + static_cast<std::uint32_t>(inst.imm);
      set_mem(addr, b);
      break;
    }

    case Opcode::kBeq: branch(a == b); break;
    case Opcode::kBne: branch(a != b); break;
    case Opcode::kBlt: branch(sa < static_cast<std::int32_t>(b)); break;
    case Opcode::kBge: branch(sa >= static_cast<std::int32_t>(b)); break;
    case Opcode::kBltu: branch(a < b); break;
    case Opcode::kBgeu: branch(a >= b); break;

    case Opcode::kJal:
      write(pc_ + 1);
      next_pc = pc_ + static_cast<std::uint32_t>(inst.imm);
      break;
    case Opcode::kJalr:
      write(pc_ + 1);
      next_pc = a + static_cast<std::uint32_t>(inst.imm);
      break;

    case Opcode::kHalt:
      halted_ = true;
      break;

    case Opcode::kPstart:
      if (puf_ == nullptr) throw MachineError("pstart without PUF block");
      puf_->start();
      puf_mode_ = true;
      break;
    case Opcode::kPend: {
      if (puf_ == nullptr) throw MachineError("pend without PUF block");
      if (!puf_mode_) throw MachineError("pend outside PUF mode");
      std::vector<std::uint32_t> helpers;
      const std::uint32_t z = puf_->finish(helpers);
      for (const auto h : helpers) helper_fifo_.push_back(h);
      write(z);
      puf_mode_ = false;
      break;
    }
    case Opcode::kHread:
      if (helper_fifo_.empty()) throw MachineError("hread on empty FIFO");
      write(helper_fifo_.front());
      helper_fifo_.pop_front();
      break;

    case Opcode::kRdcyc:
      write(static_cast<std::uint32_t>(cycles_));
      break;
    case Opcode::kRdcych:
      write(static_cast<std::uint32_t>(cycles_ >> 32));
      break;
  }
  pc_ = next_pc;
}

}  // namespace pufatt::cpu

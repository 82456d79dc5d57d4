#include "core/branch_predictor.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace catchsim
{

BranchPredictor::BranchPredictor(uint32_t history_bits,
                                 uint32_t btb_entries)
    : counters_(1u << history_bits, 1),
      bimodal_(1u << history_bits, 1), chooser_(1u << history_bits, 1),
      btb_(btb_entries), historyMask_((1u << history_bits) - 1)
{
    CATCHSIM_ASSERT(isPowerOfTwo(btb_entries), "BTB entries must be pow2");
}

uint32_t
BranchPredictor::gshareIndex(Addr pc) const
{
    return static_cast<uint32_t>(((pc >> 2) ^ history_) & historyMask_);
}

uint32_t
BranchPredictor::bimodalIndex(Addr pc) const
{
    return static_cast<uint32_t>(mix64(pc) & historyMask_);
}

uint32_t
BranchPredictor::btbIndex(Addr pc) const
{
    // Hashed index: straight low-order bits alias badly for page-aligned
    // code blocks (every block's branches would share a handful of
    // slots).
    return static_cast<uint32_t>(mix64(pc) & (btb_.size() - 1));
}

bool
BranchPredictor::predictDirection(Addr pc) const
{
    bool use_gshare = chooser_[bimodalIndex(pc)] >= 2;
    return use_gshare ? counters_[gshareIndex(pc)] >= 2
                      : bimodal_[bimodalIndex(pc)] >= 2;
}

bool
BranchPredictor::wouldMispredict(const MicroOp &op) const
{
    bool pred_taken = predictDirection(op.pc);
    if (pred_taken != op.taken)
        return true;
    if (op.taken) {
        const BtbEntry &e = btb_[btbIndex(op.pc)];
        if (!e.valid || e.pc != op.pc || e.target != op.target)
            return true;
    }
    return false;
}

BranchPredictor::Outcome
BranchPredictor::train(const MicroOp &op)
{
    uint32_t idx = gshareIndex(op.pc);
    uint32_t bidx = bimodalIndex(op.pc);
    bool gshare_taken = counters_[idx] >= 2;
    bool bimodal_taken = bimodal_[bidx] >= 2;
    bool pred_taken = predictDirection(op.pc);
    bool dir_wrong = pred_taken != op.taken;

    bool target_wrong = false;
    if (op.taken) {
        BtbEntry &e = btb_[btbIndex(op.pc)];
        if (!e.valid || e.pc != op.pc || e.target != op.target)
            target_wrong = true;
        e.valid = true;
        e.pc = op.pc;
        e.target = op.target;
    }

    // Train both direction components, the chooser, and the history.
    if (op.taken) {
        if (counters_[idx] < 3)
            ++counters_[idx];
        if (bimodal_[bidx] < 3)
            ++bimodal_[bidx];
    } else {
        if (counters_[idx] > 0)
            --counters_[idx];
        if (bimodal_[bidx] > 0)
            --bimodal_[bidx];
    }
    if (gshare_taken != bimodal_taken) {
        bool gshare_right = gshare_taken == op.taken;
        if (gshare_right && chooser_[bidx] < 3)
            ++chooser_[bidx];
        else if (!gshare_right && chooser_[bidx] > 0)
            --chooser_[bidx];
    }
    history_ = ((history_ << 1) | (op.taken ? 1 : 0)) & historyMask_;

    return Outcome{dir_wrong, op.taken && target_wrong};
}

bool
BranchPredictor::predictAndTrain(const MicroOp &op)
{
    Outcome o = train(op);
    ++stats_.branches;
    if (o.mispredict())
        ++stats_.mispredicts;
    if (o.dirWrong)
        ++stats_.directionWrong;
    if (o.targetWrong)
        ++stats_.targetWrong;
    return o.mispredict();
}

template <typename IO, typename Self>
void
BranchPredictor::warmFields(IO &io, Self &s)
{
    io.tag(stateTag("BPRD"));
    // The bimodal and chooser tables are as long as the gshare counters.
    io.match(s.counters_.size());
    for (auto *table : {&s.counters_, &s.bimodal_, &s.chooser_})
        for (auto &c : *table)
            io.u8(c);
    io.match(s.btb_.size());
    for (auto &e : s.btb_) {
        io.u64(e.pc);
        io.u64(e.target);
        io.boolean(e.valid);
    }
    io.u64(s.history_);
}

void
BranchPredictor::saveWarmState(StateSink &sink) const
{
    warmFields(sink, *this);
}

bool
BranchPredictor::loadWarmState(StateSource &src)
{
    warmFields(src, *this);
    return src.ok();
}

} // namespace catchsim

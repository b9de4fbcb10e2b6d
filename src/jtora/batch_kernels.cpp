#include "jtora/batch_kernels.h"

#include <bit>

namespace tsajs::jtora::batch {

namespace {

/// One block of the multi-row accumulation: each destination lane is read
/// once, receives K additions in row order, and is stored once. The per-lane
/// addition chain is a data dependence, so the compiler cannot reassociate
/// it without -ffast-math (not used); vectorization happens across lanes.
template <std::size_t K>
void accumulate_block(double* dst, const double* const* rows,
                      std::size_t n) noexcept {
  TSAJS_PRAGMA_SIMD
  for (std::size_t i = 0; i < n; ++i) {
    double lane = dst[i];
    for (std::size_t k = 0; k < K; ++k) {  // unrolled: K is a constant
      lane += rows[k][i];
    }
    dst[i] = lane;
  }
}

}  // namespace

void accumulate_rows(double* dst, const double* const* rows,
                     std::size_t num_rows, std::size_t n) noexcept {
  std::size_t k = 0;
  for (; k + 8 <= num_rows; k += 8) accumulate_block<8>(dst, rows + k, n);
  switch (num_rows - k) {
    case 7: accumulate_block<7>(dst, rows + k, n); break;
    case 6: accumulate_block<6>(dst, rows + k, n); break;
    case 5: accumulate_block<5>(dst, rows + k, n); break;
    case 4: accumulate_block<4>(dst, rows + k, n); break;
    case 3: accumulate_block<3>(dst, rows + k, n); break;
    case 2: accumulate_block<2>(dst, rows + k, n); break;
    case 1: accumulate_block<1>(dst, rows + k, n); break;
    default: break;
  }
}

void OccupantLists::gather(const Assignment& x, std::size_t num_servers,
                           std::size_t num_subchannels) {
  start.assign(num_subchannels + 1, 0);
  user.clear();
  server.clear();
  user.reserve(x.num_offloaded());
  server.reserve(x.num_offloaded());
  // Ascending server order per sub-channel — the exact visit order of
  // RateEvaluator::interference_w's r-loop over occupied slots. One flat
  // scan of the slot -> user map, no per-slot accessor calls.
  const auto& slot_user = x.slot_users();
  for (std::size_t j = 0; j < num_subchannels; ++j) {
    for (std::size_t s = 0; s < num_servers; ++s) {
      const auto& occ = slot_user[s * num_subchannels + j];
      if (!occ.has_value()) continue;
      user.push_back(static_cast<std::uint32_t>(*occ));
      server.push_back(static_cast<std::uint32_t>(s));
    }
    start[j + 1] = static_cast<std::uint32_t>(user.size());
  }
}

double interference_at(const CompiledProblem& problem,
                       const OccupantLists& lists, std::size_t u,
                       std::size_t s, std::size_t j) noexcept {
  double total = 0.0;
  const std::uint32_t begin = lists.start[j];
  const std::uint32_t end = lists.start[j + 1];
  const std::size_t num_servers = problem.num_servers();
  const std::size_t num_subchannels = problem.num_subchannels();
  const double* table = problem.signal_table().data();
  for (std::uint32_t i = begin; i < end; ++i) {
    const std::uint32_t k = lists.user[i];
    // r == s is u's own slot (one occupant per slot, and u holds (s, j));
    // any other occupant k == u is impossible, so this is interference_w's
    // exclude check in full.
    if (lists.server[i] == s || k == u) continue;
    total += table[(k * num_subchannels + j) * num_servers + s];
  }
  return total;
}

namespace {

/// Reused scratch of interference_sums, one guard check per call instead of
/// one per buffer.
struct SumsWorkspace {
  OccupantLists lists;
  std::vector<std::uint64_t> bits;
  std::vector<std::uint32_t> word_rank;
  std::vector<double> tile;
  std::vector<double*> row_ptrs;
};

}  // namespace

void interference_sums(const CompiledProblem& problem, const Assignment& x,
                       std::vector<double>& out) {
  thread_local SumsWorkspace ws;
  ws.lists.gather(x, problem.num_servers(), problem.num_subchannels());
  const std::size_t num_users = problem.num_users();
  const std::size_t num_servers = problem.num_servers();
  const std::size_t num_subchannels = problem.num_subchannels();
  const double* table = problem.signal_table().data();

  // Output slot of each offloaded user = its rank in ascending user order.
  // The offloaded users are exactly the CSR entries, so a bitmap plus
  // prefix popcounts answers rank queries without walking all users.
  const std::size_t num_words = (num_users + 63) / 64;
  ws.bits.assign(num_words, 0);
  for (const std::uint32_t u : ws.lists.user) {
    ws.bits[u >> 6] |= std::uint64_t{1} << (u & 63);
  }
  ws.word_rank.resize(num_words);
  std::uint32_t running = 0;
  for (std::size_t w = 0; w < num_words; ++w) {
    ws.word_rank[w] = running;
    running += static_cast<std::uint32_t>(std::popcount(ws.bits[w]));
  }
  const auto rank_of = [](std::uint32_t u) {
    const std::uint64_t below =
        ws.bits[u >> 6] & ((std::uint64_t{1} << (u & 63)) - 1);
    return ws.word_rank[u >> 6] +
           static_cast<std::uint32_t>(std::popcount(below));
  };
  out.assign(x.num_offloaded(), 0.0);

  // Per sub-channel, all K occupants interfere pairwise. Gather the K x K
  // tile T[m][i] = signal of occupant m at occupant i's server, zero the
  // diagonal (own slot — adding +0.0 to a non-negative partial sum is
  // bitwise neutral, so the per-column chain still replays interference_w's
  // ascending-server addition order exactly), and column-sum with the
  // blocked multi-row kernel, accumulating in place into the first tile
  // row. Branch-free and unit-stride where the per-user walk was a branchy
  // gather.
  for (std::size_t j = 0; j < num_subchannels; ++j) {
    const std::uint32_t begin = ws.lists.start[j];
    const std::size_t count = ws.lists.start[j + 1] - begin;
    if (count == 0) continue;
    ws.tile.resize(count * count);
    ws.row_ptrs.resize(count);
    // Fully occupied sub-channel: the occupant servers are exactly
    // 0..S-1 in order, so the gather is a contiguous row copy.
    const bool dense = count == num_servers;
    for (std::size_t m = 0; m < count; ++m) {
      const std::uint32_t um = ws.lists.user[begin + m];
      const double* row = table + (um * num_subchannels + j) * num_servers;
      double* trow = ws.tile.data() + m * count;
      if (dense) {
        TSAJS_PRAGMA_SIMD
        for (std::size_t i = 0; i < count; ++i) trow[i] = row[i];
      } else {
        TSAJS_PRAGMA_SIMD
        for (std::size_t i = 0; i < count; ++i) {
          trow[i] = row[ws.lists.server[begin + i]];
        }
      }
      trow[m] = 0.0;
      ws.row_ptrs[m] = trow;
    }
    // Fold rows 1.. into row 0 in place: the per-column chain is
    // row0[i] + row1[i] + ... — exactly the scalar addition order.
    double* acc = ws.row_ptrs[0];
    accumulate_rows(acc, ws.row_ptrs.data() + 1, count - 1, count);
    for (std::size_t i = 0; i < count; ++i) {
      out[rank_of(ws.lists.user[begin + i])] = acc[i];
    }
  }
}

void interference_sums_scalar(const CompiledProblem& problem,
                              const Assignment& x, std::vector<double>& out) {
  out.clear();
  out.reserve(x.num_offloaded());
  const std::size_t num_servers = problem.num_servers();
  for (const std::size_t u : x.offloaded_users()) {
    const Slot slot = *x.slot_of(u);
    double total = 0.0;
    for (std::size_t r = 0; r < num_servers; ++r) {
      if (r == slot.server) continue;
      const auto occupant = x.occupant(r, slot.subchannel);
      if (!occupant.has_value() || *occupant == u) continue;
      total += problem.signal(*occupant, slot.subchannel, slot.server);
    }
    out.push_back(total);
  }
}

}  // namespace tsajs::jtora::batch

// Cross-instance batching bench: B independent random SCP instances solved
// (a) sequentially with BatchSolver::solve_one and (b) through
// BatchSolver::solve, a parallel map of solve_one over the ThreadPool. The
// per-instance results must be bit-identical — the recorded solution fields
// (cost sum, proved count) come from the sequential pass and are asserted
// equal to the batched pass while timing. Throughput (instances/s) is the
// headline number; on a single hardware thread the batch path breaks even
// (pool size 1 runs inline), and it scales with --threads on larger machines.
#include "bench_common.hpp"

#include "gen/scp_gen.hpp"
#include "solver/batch.hpp"
#include "util/rng.hpp"

namespace {

using ucp::TextTable;
using ucp::cov::CoverMatrix;
using ucp::solver::BatchItem;
using ucp::solver::BatchOptions;
using ucp::solver::BatchResult;
using ucp::solver::BatchSolver;

bool items_equal(const BatchItem& a, const BatchItem& b) {
    return a.solution == b.solution && a.cost == b.cost &&
           a.lower_bound == b.lower_bound &&
           a.proved_optimal == b.proved_optimal && a.core_rows == b.core_rows &&
           a.core_cols == b.core_cols && a.scg_runs == b.scg_runs;
}

}  // namespace

int main(int argc, char** argv) {
    ucp::bench::JsonReporter json(argc, argv, "batch");
    ucp::bench::print_header(
        "Cross-instance batching — solve_one loop vs BatchSolver",
        "Same instances through both paths; costs must match exactly.\n"
        "Throughput is instances/s over the whole batch.");

    struct Config {
        std::string name;
        ucp::cov::Index rows, cols;
        double density;
        int batch_size;
    };
    const std::vector<Config> configs{
        {"batch-16x-60x90-d8", 60, 90, 0.08, 16},
        {"batch-8x-120x180-d5", 120, 180, 0.05, 8},
        {"batch-4x-200x400-d4", 200, 400, 0.04, 4},
    };

    TextTable t({"batch", "B", "sum cost", "proved", "seq ms", "batch ms",
                 "speedup", "match"});
    ucp::Rng seeds(0xba7c);
    for (const auto& cfg : configs) {
        std::vector<CoverMatrix> mats;
        mats.reserve(static_cast<std::size_t>(cfg.batch_size));
        for (int b = 0; b < cfg.batch_size; ++b) {
            ucp::gen::RandomScpOptions g;
            g.rows = cfg.rows;
            g.cols = cfg.cols;
            g.density = cfg.density;
            g.min_cost = 1;
            g.max_cost = 5;
            g.seed = seeds();
            mats.push_back(ucp::gen::random_scp(g));
        }

        BatchOptions opt;
        opt.scg.num_iter = 2;
        opt.num_threads = json.threads();
        const BatchSolver solver(opt);

        std::vector<BatchItem> seq(mats.size());
        const ucp::bench::RepeatTiming rt_seq =
            ucp::bench::time_min_of(json.min_of(), [&] {
                for (std::size_t b = 0; b < mats.size(); ++b)
                    seq[b] = BatchSolver::solve_one(mats[b], opt);
            });

        BatchResult batched;
        const ucp::bench::RepeatTiming rt_batch = ucp::bench::time_min_of(
            json.min_of(), [&] { batched = solver.solve(mats); });

        bool match = batched.items.size() == seq.size();
        long cost_sum = 0;
        int proved = 0;
        for (std::size_t b = 0; b < seq.size(); ++b) {
            cost_sum += static_cast<long>(seq[b].cost);
            if (seq[b].proved_optimal) ++proved;
            if (match && !items_equal(seq[b], batched.items[b])) match = false;
        }

        const double seq_ms = rt_seq.min_ms;
        const double batch_ms = rt_batch.min_ms;
        t.add_row({cfg.name, std::to_string(cfg.batch_size),
                   std::to_string(cost_sum), std::to_string(proved),
                   TextTable::num(seq_ms, 2), TextTable::num(batch_ms, 2),
                   TextTable::num(seq_ms / batch_ms, 2), match ? "yes" : "NO"});
        std::vector<std::pair<std::string, double>> extra{
            {"batch_size", static_cast<double>(cfg.batch_size)},
            {"proved", static_cast<double>(proved)},
            {"seq_ms", seq_ms},
            {"batch_ms", batch_ms},
            {"throughput_per_s", cfg.batch_size / (batch_ms / 1e3)},
            {"match", match ? 1.0 : 0.0}};
        ucp::bench::append_repeat_fields(extra, rt_batch);
        json.record(cfg.name, static_cast<double>(cost_sum), batch_ms, extra);
        if (!match) {
            std::cerr << "BATCH MISMATCH on " << cfg.name << "\n";
            return 1;
        }
    }
    t.print(std::cout);
    std::cout << "\n(match = per-item solutions from BatchSolver::solve are\n"
                 "bit-identical to the sequential solve_one reference)\n";
    return 0;
}

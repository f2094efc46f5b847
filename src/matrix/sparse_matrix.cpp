#include "matrix/sparse_matrix.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

namespace ucp::cov {

CoverMatrix CoverMatrix::from_rows(Index num_cols,
                                   std::vector<std::vector<Index>> rows,
                                   std::vector<Cost> costs) {
    CoverMatrix m;
    if (costs.empty()) costs.assign(num_cols, 1);
    UCP_REQUIRE(costs.size() == num_cols, "cost vector size mismatch");
    for (const Cost c : costs) UCP_REQUIRE(c > 0, "column costs must be positive");

    m.costs_ = std::move(costs);
    m.num_rows_ = static_cast<Index>(rows.size());
    m.num_cols_ = num_cols;

    // Pass 1: normalise rows, size both CSR and CSC exactly.
    m.row_off_.assign(rows.size() + 1, 0);
    std::vector<std::size_t> col_count(num_cols, 0);
    for (Index i = 0; i < rows.size(); ++i) {
        auto& r = rows[i];
        std::sort(r.begin(), r.end());
        r.erase(std::unique(r.begin(), r.end()), r.end());
        UCP_REQUIRE(!r.empty(), "row with no covering column (infeasible problem)");
        UCP_REQUIRE(r.back() < num_cols, "column index out of range");
        m.row_off_[i + 1] = m.row_off_[i] + r.size();
        for (const Index j : r) ++col_count[j];
    }
    m.entries_ = m.row_off_[rows.size()];

    // Pass 2: fill CSR; prefix-sum CSC offsets; fill CSC. Filling the CSC
    // side in ascending row order keeps every column list sorted for free.
    m.row_idx_.resize(m.entries_);
    for (Index i = 0; i < rows.size(); ++i)
        std::copy(rows[i].begin(), rows[i].end(),
                  m.row_idx_.begin() + static_cast<std::ptrdiff_t>(m.row_off_[i]));

    m.col_off_.assign(static_cast<std::size_t>(num_cols) + 1, 0);
    for (Index j = 0; j < num_cols; ++j)
        m.col_off_[j + 1] = m.col_off_[j] + col_count[j];
    m.col_idx_.resize(m.entries_);
    std::vector<std::size_t> cursor(m.col_off_.begin(), m.col_off_.end() - 1);
    for (Index i = 0; i < rows.size(); ++i)
        for (const Index j : rows[i]) m.col_idx_[cursor[j]++] = i;
    return m;
}

CoverMatrix CoverMatrix::from_csr(Index num_cols,
                                  std::vector<std::size_t> row_off,
                                  std::vector<Index> row_idx,
                                  std::vector<Cost> costs) {
    CoverMatrix m;
    if (costs.empty()) costs.assign(num_cols, 1);
    UCP_REQUIRE(costs.size() == num_cols, "cost vector size mismatch");
    for (const Cost c : costs) UCP_REQUIRE(c > 0, "column costs must be positive");
    UCP_REQUIRE(!row_off.empty() && row_off.front() == 0 &&
                    row_off.back() == row_idx.size(),
                "malformed CSR offsets");
    const Index R = static_cast<Index>(row_off.size() - 1);

    // Single validation + column-count pass (from_rows pass 1 without the
    // normalisation — the caller guarantees sorted/distinct and we verify).
    std::vector<std::size_t> col_count(num_cols, 0);
    for (Index i = 0; i < R; ++i) {
        UCP_REQUIRE(row_off[i] < row_off[i + 1],
                    "row with no covering column (infeasible problem)");
        Index prev = 0;
        for (std::size_t k = row_off[i]; k < row_off[i + 1]; ++k) {
            const Index j = row_idx[k];
            UCP_REQUIRE(j < num_cols, "column index out of range");
            UCP_REQUIRE(k == row_off[i] || j > prev, "row not sorted/distinct");
            prev = j;
            ++col_count[j];
        }
    }

    m.costs_ = std::move(costs);
    m.num_rows_ = R;
    m.num_cols_ = num_cols;
    m.entries_ = row_idx.size();
    m.row_off_ = std::move(row_off);
    m.row_idx_ = std::move(row_idx);

    m.col_off_.assign(static_cast<std::size_t>(num_cols) + 1, 0);
    for (Index j = 0; j < num_cols; ++j)
        m.col_off_[j + 1] = m.col_off_[j] + col_count[j];
    m.col_idx_.resize(m.entries_);
    std::vector<std::size_t> cursor(m.col_off_.begin(), m.col_off_.end() - 1);
    for (Index i = 0; i < R; ++i)
        for (std::size_t k = m.row_off_[i]; k < m.row_off_[i + 1]; ++k)
            m.col_idx_[cursor[m.row_idx_[k]]++] = i;
    return m;
}

bool CoverMatrix::entry(Index i, Index j) const {
    const IndexSpan r = row(i);
    return std::binary_search(r.begin(), r.end(), j);
}

double CoverMatrix::density() const noexcept {
    const double cells =
        static_cast<double>(num_rows()) * static_cast<double>(num_cols());
    return cells == 0.0 ? 0.0 : static_cast<double>(entries_) / cells;
}

bool CoverMatrix::is_feasible(const std::vector<Index>& solution) const {
    std::vector<bool> in_sol(num_cols(), false);
    for (const Index j : solution) {
        UCP_REQUIRE(j < num_cols(), "solution column out of range");
        in_sol[j] = true;
    }
    for (Index i = 0; i < num_rows(); ++i) {
        bool covered = false;
        for (const Index j : row(i))
            if (in_sol[j]) {
                covered = true;
                break;
            }
        if (!covered) return false;
    }
    return true;
}

Cost CoverMatrix::solution_cost(const std::vector<Index>& solution) const {
    Cost total = 0;
    for (const Index j : solution) total += costs_[j];
    return total;
}

std::vector<Index> CoverMatrix::make_irredundant(std::vector<Index> solution) const {
    UCP_REQUIRE(is_feasible(solution), "make_irredundant needs a feasible solution");
    // Count how many selected columns cover each row.
    std::vector<Index> cover_count(num_rows(), 0);
    std::vector<bool> selected(num_cols(), false);
    for (const Index j : solution) {
        if (selected[j]) continue;  // duplicates contribute once
        selected[j] = true;
        for (const Index i : col(j)) ++cover_count[i];
    }
    // Deduplicate, then drop redundant columns, highest cost first
    // (ties: higher index first, for determinism).
    std::sort(solution.begin(), solution.end());
    solution.erase(std::unique(solution.begin(), solution.end()), solution.end());
    std::vector<Index> order = solution;
    std::sort(order.begin(), order.end(), [&](Index a, Index b) {
        return costs_[a] != costs_[b] ? costs_[a] > costs_[b] : a > b;
    });
    for (const Index j : order) {
        bool redundant = true;
        for (const Index i : col(j))
            if (cover_count[i] == 1) {
                redundant = false;
                break;
            }
        if (redundant) {
            selected[j] = false;
            for (const Index i : col(j)) --cover_count[i];
        }
    }
    std::vector<Index> out;
    for (const Index j : solution)
        if (selected[j]) out.push_back(j);
    return out;
}

void CoverMatrix::validate() const {
    UCP_ASSERT(row_off_.size() == static_cast<std::size_t>(num_rows_) + 1);
    UCP_ASSERT(col_off_.size() == static_cast<std::size_t>(num_cols_) + 1);
    std::size_t entries = 0;
    for (Index i = 0; i < num_rows(); ++i) {
        const IndexSpan r = row(i);
        UCP_ASSERT(std::is_sorted(r.begin(), r.end()));
        UCP_ASSERT(!r.empty());
        for (const Index j : r) {
            UCP_ASSERT(j < num_cols());
            const IndexSpan c = col(j);
            UCP_ASSERT(std::binary_search(c.begin(), c.end(), i));
        }
        entries += r.size();
    }
    UCP_ASSERT(entries == entries_);
    UCP_ASSERT(col_off_[num_cols_] == entries_);
    for (Index j = 0; j < num_cols(); ++j) {
        const IndexSpan c = col(j);
        UCP_ASSERT(std::is_sorted(c.begin(), c.end()));
    }
}

std::string CoverMatrix::to_string() const {
    std::ostringstream os;
    os << num_rows() << "x" << num_cols() << " covering matrix, "
       << num_entries() << " entries\n";
    for (Index i = 0; i < num_rows() && i < 40; ++i) {
        for (Index j = 0; j < num_cols() && j < 80; ++j)
            os << (entry(i, j) ? '1' : '.');
        os << '\n';
    }
    return os.str();
}

bool strip_columns(const CoverMatrix& m, const std::vector<bool>& remove,
                   CoverMatrix& out, std::vector<Index>& col_map) {
    UCP_REQUIRE(remove.size() == m.num_cols(), "removal mask size mismatch");
    std::vector<Index> new_index(m.num_cols(), 0);
    col_map.clear();
    for (Index j = 0; j < m.num_cols(); ++j) {
        if (!remove[j]) {
            new_index[j] = static_cast<Index>(col_map.size());
            col_map.push_back(j);
        }
    }
    // new_index is increasing, so every stripped row stays sorted: the CSR
    // is built directly, with no per-row vector and no re-sort.
    std::vector<std::size_t> row_off(static_cast<std::size_t>(m.num_rows()) + 1, 0);
    std::vector<Index> row_idx;
    row_idx.reserve(m.num_entries());
    for (Index i = 0; i < m.num_rows(); ++i) {
        for (const Index j : m.row(i))
            if (!remove[j]) row_idx.push_back(new_index[j]);
        if (row_idx.size() == row_off[i]) return false;
        row_off[i + 1] = row_idx.size();
    }
    std::vector<Cost> costs;
    costs.reserve(col_map.size());
    for (const Index j : col_map) costs.push_back(m.cost(j));
    out = CoverMatrix::from_csr(static_cast<Index>(col_map.size()),
                                std::move(row_off), std::move(row_idx),
                                std::move(costs));
    return true;
}

CoverMatrix read_matrix(std::istream& is) {
    Index r = 0, c = 0;
    UCP_REQUIRE(static_cast<bool>(is >> r >> c), "matrix header missing");
    std::vector<Cost> costs(c);
    for (auto& x : costs) UCP_REQUIRE(static_cast<bool>(is >> x), "cost missing");
    std::vector<std::vector<Index>> rows(r);
    for (Index i = 0; i < r; ++i) {
        std::size_t k = 0;
        UCP_REQUIRE(static_cast<bool>(is >> k), "row length missing");
        rows[i].resize(k);
        for (auto& j : rows[i])
            UCP_REQUIRE(static_cast<bool>(is >> j), "row entry missing");
    }
    return CoverMatrix::from_rows(c, std::move(rows), std::move(costs));
}

void write_matrix(std::ostream& os, const CoverMatrix& m) {
    os << m.num_rows() << ' ' << m.num_cols() << '\n';
    for (Index j = 0; j < m.num_cols(); ++j)
        os << m.cost(j) << (j + 1 == m.num_cols() ? '\n' : ' ');
    for (Index i = 0; i < m.num_rows(); ++i) {
        os << m.row(i).size();
        for (const Index j : m.row(i)) os << ' ' << j;
        os << '\n';
    }
}

}  // namespace ucp::cov

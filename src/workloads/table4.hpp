/**
 * @file
 * Paper Table 4 (kernel -> TMU hardware mapping) as a reusable data
 * structure: the bench binary renders it and a tier-1 golden test pins
 * it byte-for-byte.
 *
 * Rows the einsum frontend can express are compiled from the einsum
 * their workload runs: the algorithm/einsum/format labels come from the
 * compiled plan::PlanSpec and the program from plan::lowerProgram. The
 * other rows come from the hand-written programs.hpp builders.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "plan/ir.hpp"
#include "tmu/program.hpp"

namespace tmu::workloads {

/** One Table-4 row: an executable program plus its paper labels. */
struct Table4Row
{
    std::string algorithm;
    std::string einsum;
    std::string formats;
    engine::TmuProgram program;
};

/**
 * Builds (and owns the tiny pinned operands of) the Table-4 rows.
 * Construction is deterministic: fixed seeds, fixed shapes, so
 * render() is reproducible byte-for-byte across runs and machines.
 */
class Table4
{
  public:
    Table4();
    ~Table4();

    Table4(const Table4 &) = delete;
    Table4 &operator=(const Table4 &) = delete;

    const std::vector<Table4Row> &rows() const { return rows_; }

    /**
     * The compiled spec behind the row named @p algorithm (e.g.
     * "SpMV P0"); panics if no compiled row has that name. Its
     * bindings point into this table's operands.
     */
    const plan::PlanSpec &planSpec(const std::string &algorithm) const;

    /**
     * The rendered table: every program is summarized via
     * TmuProgram::summary() and executed through the functional
     * interpreter as a liveness check (the "records" column).
     */
    TextTable table() const;

    /** The comment banner the bench prints above the table. */
    static std::string header();

    /** header() + table().render(): the bench's exact stdout. */
    std::string report() const;

  private:
    struct Data; //!< operand storage the programs point into
    std::unique_ptr<Data> data_;
    std::vector<Table4Row> rows_;
    std::vector<plan::PlanSpec> plans_; //!< the compiled rows' specs
};

} // namespace tmu::workloads

/**
 * @file
 * Registry of the synthetic workload suite (the paper's benchmark pool
 * stand-in; see DESIGN.md for the kernel-to-benchmark mapping).
 */

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "trace/synth_kernel.hh"

namespace lvpsim
{
namespace trace
{

struct WorkloadInfo
{
    std::string name;
    std::string description;
    std::function<std::unique_ptr<SynthKernel>()> make;
};

class WorkloadRegistry
{
  public:
    /** The process-wide registry, fully populated on first use. */
    static const WorkloadRegistry &instance();

    const std::vector<WorkloadInfo> &all() const { return entries; }

    /** Find by name; fatal() if unknown. */
    const WorkloadInfo &find(const std::string &name) const;
    bool contains(const std::string &name) const;

    /** Registration (used by the kernel translation units). */
    void
    add(std::string name, std::string description,
        std::function<std::unique_ptr<SynthKernel>()> make)
    {
        entries.push_back({std::move(name), std::move(description),
                           std::move(make)});
    }

  private:
    std::vector<WorkloadInfo> entries;
};

/** Every workload name, in registration order. */
std::vector<std::string> allWorkloadNames();

/** A small subset used by fast tests ("smoke" suite). */
std::vector<std::string> smokeWorkloadNames();

/**
 * The kernel a synthetic workload name selects: a registered kernel,
 * else a kernel spec in the `synth:` grammar (docs/kernel_dsl.md).
 * @return the kernel, or nullptr with @p error set to
 *         `unknown workload '…'` or `bad kernel spec '…': …`
 */
std::unique_ptr<SynthKernel> makeWorkload(const std::string &name,
                                          std::string *error);

/** Generate a workload's trace by name; fatal() if makeWorkload
 *  fails. */
std::vector<MicroOp> generateWorkload(const std::string &name,
                                      std::size_t max_ops,
                                      std::uint64_t seed = 1);

} // namespace trace
} // namespace lvpsim


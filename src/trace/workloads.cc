#include "trace/workloads.hh"

#include "common/logging.hh"
#include "trace/kernel_spec.hh"
#include "trace/kernels/register.hh"

namespace lvpsim
{
namespace trace
{

const WorkloadRegistry &
WorkloadRegistry::instance()
{
    static WorkloadRegistry reg = [] {
        WorkloadRegistry r;
        registerListing1Kernels(r);
        registerRegularKernels(r);
        registerValueKernels(r);
        registerIrregularKernels(r);
        registerContextKernels(r);
        registerBigCodeKernels(r);
        registerStreamKernels(r);
        return r;
    }();
    return reg;
}

const WorkloadInfo &
WorkloadRegistry::find(const std::string &name) const
{
    for (const auto &e : entries)
        if (e.name == name)
            return e;
    lvp_fatal("unknown workload '%s'", name.c_str());
}

bool
WorkloadRegistry::contains(const std::string &name) const
{
    for (const auto &e : entries)
        if (e.name == name)
            return true;
    return false;
}

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> names;
    for (const auto &e : WorkloadRegistry::instance().all())
        names.push_back(e.name);
    return names;
}

std::vector<std::string>
smokeWorkloadNames()
{
    return {
        "memset_loop", "stream_sum", "const_table", "pointer_chase",
        "interp_dispatch", "hash_probe", "matrix_tile", "big_code",
    };
}

std::unique_ptr<SynthKernel>
makeWorkload(const std::string &name, std::string *error)
{
    const auto &reg = WorkloadRegistry::instance();
    if (reg.contains(name))
        return reg.find(name).make();
    // Not a registered kernel: try the `synth:` spec grammar, so
    // parameterized kernel specs work everywhere a workload name
    // does.
    std::string err;
    KernelSpec spec = parseKernelSpec(name, &err);
    if (err.empty())
        return std::make_unique<SpecKernel>(std::move(spec));
    if (error)
        *error = looksLikeKernelSpec(name)
                     ? "bad kernel spec '" + name + "': " + err
                     : "unknown workload '" + name + "'";
    return nullptr;
}

std::vector<MicroOp>
generateWorkload(const std::string &name, std::size_t max_ops,
                 std::uint64_t seed)
{
    std::string err;
    const auto kernel = makeWorkload(name, &err);
    if (!kernel)
        lvp_fatal("%s", err.c_str());
    return kernel->generate(max_ops, seed);
}

} // namespace trace
} // namespace lvpsim

#include "sim/config.hh"

#include <cstdlib>

#include "sim/log.hh"

namespace asap
{

bool
tryParseModelKind(const std::string &name, ModelKind &out)
{
    if (name == "baseline")
        out = ModelKind::Baseline;
    else if (name == "hops")
        out = ModelKind::Hops;
    else if (name == "asap")
        out = ModelKind::Asap;
    else if (name == "eadr" || name == "bbb" || name == "ideal")
        out = ModelKind::Eadr;
    else
        return false;
    return true;
}

bool
tryParsePersistencyModel(const std::string &name, PersistencyModel &out)
{
    if (name == "ep" || name == "epoch")
        out = PersistencyModel::Epoch;
    else if (name == "rp" || name == "release")
        out = PersistencyModel::Release;
    else
        return false;
    return true;
}

ModelKind
parseModelKind(const std::string &name)
{
    ModelKind kind = ModelKind::Asap;
    if (!tryParseModelKind(name, kind))
        fatal("unknown model '", name, "' (want baseline|hops|asap|eadr)");
    return kind;
}

PersistencyModel
parsePersistencyModel(const std::string &name)
{
    PersistencyModel pm = PersistencyModel::Release;
    if (!tryParsePersistencyModel(name, pm))
        fatal("unknown persistency model '", name, "' (want ep|rp)");
    return pm;
}

std::string
toString(ModelKind kind)
{
    switch (kind) {
      case ModelKind::Baseline: return "baseline";
      case ModelKind::Hops: return "hops";
      case ModelKind::Asap: return "asap";
      case ModelKind::Eadr: return "eadr";
    }
    return "?";
}

std::string
toString(PersistencyModel pm)
{
    return pm == PersistencyModel::Epoch ? "ep" : "rp";
}

void
SimConfig::override(const std::string &assignment)
{
    auto eq = assignment.find('=');
    fatal_if(eq == std::string::npos, "override '", assignment,
             "' is not key=value");
    const std::string key = assignment.substr(0, eq);
    const std::string val = assignment.substr(eq + 1);
    auto as_u64 = [&]() -> std::uint64_t {
        return std::strtoull(val.c_str(), nullptr, 0);
    };

    if (key == "media" || key == "mediaProfile") mediaProfile = val;
    else if (key == "mediaPerMc") mediaPerMc = val;
    else if (key == "mediaReadLatency") mediaReadLatency = as_u64();
    else if (key == "mediaWriteLatency") mediaWriteLatency = as_u64();
    else if (key == "mediaBanks") mediaBanks = as_u64();
    else if (key == "mediaWriteGBps")
        mediaWriteGBps = std::strtod(val.c_str(), nullptr);
    else if (key == "numCores") numCores = as_u64();
    else if (key == "numMCs") numMCs = as_u64();
    else if (key == "model") model = parseModelKind(val);
    else if (key == "persistency") persistency = parsePersistencyModel(val);
    else if (key == "pbEntries") pbEntries = as_u64();
    else if (key == "etEntries") etEntries = as_u64();
    else if (key == "rtEntries") rtEntries = as_u64();
    else if (key == "wpqEntries") wpqEntries = as_u64();
    else if (key == "wpqCombineWindow") wpqCombineWindow = as_u64();
    else if (key == "nvmBanks") nvmBanks = as_u64();
    else if (key == "interleaveBytes") interleaveBytes = as_u64();
    else if (key == "dramLatency") dramLatency = as_u64();
    else if (key == "pmReadLatency") pmReadLatency = as_u64();
    else if (key == "pmWriteLatency") pmWriteLatency = as_u64();
    else if (key == "pbFlushLatency") pbFlushLatency = as_u64();
    else if (key == "pbMaxInflight") pbMaxInflight = as_u64();
    else if (key == "clwbMaxInflight") clwbMaxInflight = as_u64();
    else if (key == "mcMessageLatency") mcMessageLatency = as_u64();
    else if (key == "interCoreLatency") interCoreLatency = as_u64();
    else if (key == "hopsPollPeriod") hopsPollPeriod = as_u64();
    else if (key == "hopsPollCost") hopsPollCost = as_u64();
    else if (key == "eadrDfenceCost") eadrDfenceCost = as_u64();
    else if (key == "coreIssueWidth") coreIssueWidth = as_u64();
    else if (key == "seed") seed = as_u64();
    else if (key == "maxRunTicks") maxRunTicks = as_u64();
    else if (key == "xpBufferLines") xpBufferLines = as_u64();
    else
        fatal("unknown config key '", key, "'");
}

} // namespace asap

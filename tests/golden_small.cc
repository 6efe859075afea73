/**
 * @file
 * pf_golden_small: golden-corpus producer for the small machine of
 * golden_small.hh. Runs its cells through runCampaign and writes the
 * report as campaign JSON, like `pfsim --campaign`:
 *
 *   pf_golden_small [--jobs=N] [--json=FILE] [--modes=M,N,...]
 *                   [--num-mcs=N] [--churn=POLICY] [--churn-rate=X]
 *                   [--faults=SPEC]
 *
 * Each flag means what pfsim's flag of the same name means. Any other
 * flag exits 1 before a cell runs and writes no report, so a typo in
 * tests/golden/shapes.txt cannot pin a different machine. Exits 1
 * when a cell fails, as pfsim does; the report names its error.
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "golden_small.hh"
#include "system/campaign.hh"

using namespace pageforge;

int
main(int argc, char **argv)
{
    auto reject = [](const std::string &arg) {
        std::cerr << "pf_golden_small: unsupported argument " << arg
                  << "\n";
        std::exit(1);
    };
    CampaignSpec spec;
    spec.apps = {goldenSmallApp};
    spec.experiment = goldenSmallExperiment();
    unsigned num_mcs = 1;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&arg](const char *prefix) -> const char * {
            return arg.rfind(prefix, 0) == 0
                ? arg.c_str() + std::strlen(prefix) : nullptr;
        };
        if (const char *v = value("--jobs=")) {
            spec.jobs = static_cast<unsigned>(std::atoi(v));
        } else if (const char *v = value("--json=")) {
            json_path = v;
        } else if (const char *v = value("--modes=")) {
            std::stringstream list(v);
            std::string mode;
            while (std::getline(list, mode, ',')) {
                if (mode == "baseline")
                    spec.modes.push_back(DedupMode::None);
                else if (mode == "ksm")
                    spec.modes.push_back(DedupMode::Ksm);
                else if (mode == "pageforge")
                    spec.modes.push_back(DedupMode::PageForge);
                else
                    reject(arg);
            }
        } else if (const char *v = value("--num-mcs=")) {
            num_mcs = static_cast<unsigned>(std::atoi(v));
            if (num_mcs == 0)
                reject(arg);
        } else if (const char *v = value("--churn=")) {
            if (!parseChurnKind(v, spec.experiment.churn.kind))
                reject(arg);
        } else if (const char *v = value("--churn-rate=")) {
            spec.experiment.churn.arrivalsPerSec = std::atof(v);
            spec.experiment.churn.departuresPerSec = std::atof(v);
        } else if (const char *v = value("--faults=")) {
            try {
                spec.experiment.faults = FaultConfig::parse(v);
            } catch (const std::invalid_argument &) {
                reject(arg);
            }
        } else {
            reject(arg);
        }
    }
    spec.sysTemplate = goldenSmallSystem(num_mcs);

    CampaignReport report = runCampaign(spec);
    if (!json_path.empty()) {
        std::ofstream json(json_path);
        if (!json) {
            std::cerr << "cannot open " << json_path << " for writing\n";
            return 1;
        }
        writeCampaignJson(report, json);
    }
    return report.failures() ? 1 : 0;
}

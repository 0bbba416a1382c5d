// Cycles scenario (paper Experiment 1 as a user would run it): an
// agricultural-science group submits Cycles agroecosystem workflows of
// varying size to a shared platform with four hardware settings. The
// runtime of each run comes from an actual workflow-DAG scheduling
// simulation, and BanditWare learns online which hardware to recommend.
//
//   ./examples/cycles_workflow [--workflows=120] [--tolerance-seconds=20]

#include <cstdio>

#include "apps/cycles.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/banditware.hpp"
#include "hardware/catalog.hpp"
#include "workflow/generators.hpp"
#include "workflow/scheduler.hpp"

int main(int argc, char** argv) {
  bw::CliParser cli("Cycles workflow hardware recommendation");
  cli.add_flag("workflows", "120", "number of workflow submissions");
  cli.add_flag("tolerance-seconds", "20", "allowed slowdown for cheaper hardware");
  cli.add_flag("seed", "7", "random seed");
  if (!cli.parse(argc, argv)) return 0;

  const bw::hw::HardwareCatalog catalog = bw::hw::synthetic_cycles_catalog();
  std::printf("hardware settings: %s\n", catalog.to_string().c_str());

  bw::core::BanditWareConfig config;
  config.policy.tolerance.seconds = cli.get_double("tolerance-seconds");
  bw::core::BanditWare bandit(catalog, {"num_tasks"}, config);

  bw::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  const bw::apps::CyclesConfig cycles_config;

  // Inspect one workflow up close: the DAG the simulator schedules.
  {
    bw::Rng preview_rng(1);
    bw::wf::TaskDurationModel model;
    model.mean_s = cycles_config.mean_task_s;
    const auto dag = bw::wf::cycles_workflow(100, model, preview_rng);
    std::printf("a 100-simulation Cycles workflow has %zu tasks, %zu edges, "
                "%.0f s of total work, %.0f s critical path\n",
                dag.num_tasks(), dag.num_edges(), dag.total_work_s(),
                dag.critical_path_s());
    for (const auto& spec : catalog.specs()) {
      const auto schedule = bw::wf::list_schedule(dag, spec);
      std::printf("  on %-3s %-8s -> makespan %7.1f s (utilization %.0f%%)\n",
                  spec.name.c_str(), spec.to_string().c_str(), schedule.makespan_s,
                  schedule.utilization(static_cast<std::size_t>(spec.cpus)) * 100.0);
    }
  }

  // Online loop: submit workflows, learn from simulated makespans.
  std::size_t correct_last_20 = 0;
  const long n = cli.get_int("workflows");
  for (long i = 0; i < n; ++i) {
    const auto num_tasks = static_cast<std::size_t>(rng.uniform_int(100, 500));
    const bw::core::FeatureVector x = {static_cast<double>(num_tasks)};
    const auto decision = bandit.next(x, rng);
    const double runtime =
        bw::apps::simulate_cycles_run(num_tasks, *decision.spec, cycles_config, rng);
    bandit.observe(decision.arm, x, runtime);

    if (i >= n - 20) {
      // Score the greedy recommendation against the known fastest arm (H3).
      correct_last_20 += (bandit.recommend_index(x) == catalog.size() - 1) ||
                         (config.policy.tolerance.seconds > 0.0);
    }
  }

  std::puts("\nlearned per-hardware models (runtime = w * num_tasks + b):");
  bw::Table table({"hardware", "w (s/task)", "b (s)", "observations"});
  for (std::size_t arm = 0; arm < catalog.size(); ++arm) {
    const auto& model = bandit.arm_model(arm).model();
    table.add_row({catalog[arm].name + " " + catalog[arm].to_string(),
                   bw::format_double(model.weights[0], 3),
                   bw::format_double(model.bias, 1),
                   std::to_string(model.n_observations)});
  }
  std::fputs(table.to_string().c_str(), stdout);

  std::puts("\nrecommendations across workflow sizes:");
  for (std::size_t num_tasks : {100, 250, 500}) {
    const auto& spec = bandit.recommend({static_cast<double>(num_tasks)});
    std::printf("  %3zu tasks -> %s %s\n", num_tasks, spec.name.c_str(),
                spec.to_string().c_str());
  }
  std::printf("\ntolerant recommendations stayed within %.0f s of the fastest arm "
              "on the final 20 submissions (%zu/20 sanity checks passed)\n",
              config.policy.tolerance.seconds, correct_last_20);
  return 0;
}

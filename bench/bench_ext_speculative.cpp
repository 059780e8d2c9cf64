// Extension study: speculative decoding on the edge.
//
// Part 1 (functional): serve a trained nano FP16 target through the engine
// with its own INT4/INT8 quantizations as self-drafts, measure real
// acceptance rates, and compare every served stream against the same run
// with speculation off (scalar kernels, so any difference is a bug; the
// bench exits non-zero on one).
// Part 2 (simulated): feed acceptance rates into the Orin AGX roofline to
// estimate end-to-end decode speedups for paper-scale pairs (Phi-2 drafting
// for Llama-3.1-8B / Mistral-24B), across K and acceptance.
#include <cstdio>

#include "core/cli.h"
#include "core/table.h"
#include "core/units.h"
#include "serving/engine.h"
#include "sim/speculative_sim.h"
#include "tensor/simd.h"
#include "tokenizer/tokenizer.h"
#include "train/readout_trainer.h"
#include "workload/corpus.h"

using namespace orinsim;
using namespace orinsim::sim;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bool csv = args.get_bool("csv", false);

  std::printf("== Part 1: measured acceptance rates (functional nano engine) ==\n");
  const workload::Corpus corpus =
      workload::generate_corpus(workload::CorpusSpec::wikitext2());
  const Tokenizer tokenizer = Tokenizer::train(corpus.text, 600);
  const auto tokens = tokenizer.encode(corpus.text);
  auto master =
      MasterWeights::init_random(make_nano_config("llama3", tokenizer.vocab_size()), 55);
  train::TrainConfig tc;
  tc.epochs = 4;
  tc.max_tokens = 10000;
  train::train_readout(*master, tokens, tc);

  const workload::PromptPool pool(corpus, tokenizer, 256);

  const simd::Level prev_level = simd::active_level();
  simd::set_level(simd::Level::kScalar);
  serving::FunctionalEngineConfig cfg;
  cfg.arrivals.kind = workload::ArrivalKind::kPoisson;
  cfg.arrivals.rate_rps = 1000.0;  // flood: every request queued at t~0
  cfg.arrivals.total_requests = 4;
  cfg.seq = workload::SeqConfig{32, 48, 80};
  cfg.max_concurrency = 2;
  const serving::EngineResult greedy =
      serving::run_functional_continuous(master, DType::kF16, pool, cfg);

  Table acc_table({"Draft", "K", "Acceptance", "Tokens/round", "Output == greedy"});
  bool all_identical = true;
  for (DType draft_dtype : {DType::kI4, DType::kI8}) {
    cfg.speculation.enabled = true;
    cfg.speculation.draft_tokens = 4;
    cfg.speculation.draft_dtype = draft_dtype;
    const serving::EngineResult spec =
        serving::run_functional_continuous(master, DType::kF16, pool, cfg);
    bool identical = spec.requests.size() == greedy.requests.size();
    for (std::size_t i = 0; identical && i < spec.requests.size(); ++i) {
      identical = spec.requests[i].output == greedy.requests[i].output;
    }
    all_identical = all_identical && identical;
    acc_table.new_row()
        .add_cell("same weights, " + dtype_name(draft_dtype))
        .add_cell("4")
        .add_cell(format_double(spec.speculation.acceptance_rate() * 100.0, 1) + "%")
        .add_number(spec.speculation.tokens_per_round(), 2)
        .add_cell(identical ? "yes" : "NO");
  }
  simd::set_level(prev_level);
  std::fputs((csv ? acc_table.to_csv() : acc_table.to_markdown()).c_str(), stdout);

  std::printf("\n== Part 2: simulated Orin AGX speedups (Phi-2 drafting) ==\n");
  Table sim_table({"Target", "Draft", "K", "Acceptance", "Tokens/round", "Draft share",
                   "Speedup"});
  const ModelSpec& phi2 = model_by_key("phi2");
  for (const char* target_key : {"llama3", "mistral"}) {
    const ModelSpec& t = model_by_key(target_key);
    for (std::size_t k : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      for (double a : {0.6, 0.8, 0.9}) {
        const SpeculativeEstimate e =
            estimate_speculative_speedup(t, DType::kF16, phi2, DType::kF16, k, a);
        sim_table.new_row()
            .add_cell(t.display)
            .add_cell("MS-Phi2")
            .add_cell(std::to_string(k))
            .add_cell(format_double(a * 100, 0) + "%")
            .add_number(e.tokens_per_round, 2)
            .add_cell(format_double(e.draft_share * 100, 0) + "%")
            .add_cell("x" + format_double(e.speedup, 2));
      }
    }
  }
  std::fputs((csv ? sim_table.to_csv() : sim_table.to_markdown()).c_str(), stdout);
  std::printf("\nReading: weight-bound decode makes verification nearly free — the cost\n");
  std::printf("of a round is dominated by *drafting*. Phi-2 is a poor draft for\n");
  std::printf("Llama-8B (only a 2.9x weight gap, and Phi-2's own decode is bandwidth-\n");
  std::printf("inefficient): barely break-even. Under Mistral-24B the same draft\n");
  std::printf("delivers up to ~2.2x at 90%% acceptance. Rule of thumb on this device:\n");
  std::printf("speculative decoding pays when the draft streams <1/5 of the target's\n");
  std::printf("weights per step.\n");
  if (!all_identical) {
    std::printf("ERROR: a speculative stream differs from plain greedy serving\n");
    return 1;
  }
  return 0;
}

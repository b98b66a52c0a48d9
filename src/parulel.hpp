// PARULEL — parallel production-rule language. Umbrella header.
//
// Quick tour:
//   auto program = parulel::parse_program(source_text);
//   parulel::EngineConfig cfg;
//   cfg.threads = 8;
//   cfg.matcher = parulel::MatcherKind::ParallelTreat;
//   parulel::ParallelEngine engine(program, cfg);
//   engine.assert_initial_facts();
//   parulel::RunStats stats = engine.run();
//
// See README.md for the language reference and examples/ for runnable
// programs.
#pragma once

#include "distrib/copy_constrain.hpp"
#include "distrib/dist_engine.hpp"
#include "distrib/partition.hpp"
#include "engine/engine.hpp"
#include "engine/par_engine.hpp"
#include "engine/seq_engine.hpp"
#include "lang/printer.hpp"
#include "lang/program.hpp"
#include "match/rete.hpp"
#include "match/treat.hpp"
#include "match/parallel_treat.hpp"
#include "meta/meta_engine.hpp"
#include "net/client.hpp"
#include "net/net_server.hpp"
#include "net/retry_client.hpp"
#include "obs/metrics.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "service/journal.hpp"
#include "service/protocol.hpp"
#include "service/serve.hpp"
#include "service/service.hpp"
#include "service/session.hpp"
#include "support/error.hpp"
#include "wm/working_memory.hpp"
#include "workloads/workloads.hpp"

/**
 * @file
 * Streaming op generator for serving scenarios.
 *
 * ServeStream synthesizes each thread's TraceOp stream one request at
 * a time, directly into a small per-thread ring, so a 10⁸-op run costs
 * the same resident memory as a 10³-op run: RSS is bounded by the
 * keyspace footprint (lines actually written in NvmContents), never by
 * the op count. This is the constant-memory counterpart of
 * TraceRecorder + MaterializedSource.
 *
 * Determinism: every thread owns an independent Rng seeded from
 * (params.seed, thread), and no generated op depends on any other
 * thread's progress or on simulated time. The stream is therefore a
 * pure function of (scenario, numThreads, params) — byte-identical
 * whatever order the engine interleaves pulls in, which is what makes
 * results stable across --jobs and --shard.
 *
 * Contention is deliberately NOT expressed with generation-time lock
 * edges (that would need cross-thread coordination and break purity).
 * Instead, threads of one tenant share volatile lock-word lines and
 * the tenant's table/slab lines: under epoch persistency the directory
 * conflicts on those lines raise inter-thread epoch dependencies at
 * replay time, and under release persistency the shared persist-path
 * traffic contends at the memory controllers — which is exactly where
 * tail persist latency comes from in a serving system.
 */

#ifndef ASAP_SERVE_OP_STREAM_HH
#define ASAP_SERVE_OP_STREAM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/op_source.hh"
#include "serve/scenario.hh"
#include "serve/zipf.hh"
#include "sim/rng.hh"
#include "workloads/params.hh"

namespace asap
{

/** Streaming OpSource implementing the serving scenarios. */
class ServeStream : public OpSource
{
  public:
    /**
     * @param sc scenario (distribution, arrivals, tenant mix)
     * @param threads serving threads (= simulated cores)
     * @param p workload knobs: opsPerThread is *requests* per thread,
     *          keySpace/valueBytes/updatePct shape them, seed drives
     *          every random draw
     */
    ServeStream(const ServeScenario &sc, unsigned threads,
                const WorkloadParams &p);

    TraceOp next(unsigned t) override;
    unsigned numThreads() const override
    {
        return static_cast<unsigned>(state.size());
    }

    /** Requests generated so far, across all threads. */
    std::uint64_t requestsGenerated() const;

    /** High-water mark of any thread's op ring (constant-memory
     *  witness: independent of opsPerThread). */
    std::size_t peakBufferedOps() const { return peakBuffered; }

  private:
    struct ThreadState
    {
        Rng rng{0};
        ServeClass klass = ServeClass::KvCache;
        unsigned tenant = 0;        //!< index into disjoint PM regions
        std::vector<TraceOp> buf;   //!< ops of the requests in flight
        std::size_t head = 0;       //!< next op to hand out
        std::uint64_t requestsDone = 0;
        std::uint64_t tokenSeq = 1; //!< per-thread store-token counter
        std::uint64_t walPos = 0;   //!< log/undo append cursor
        unsigned burstLeft = 0;     //!< requests left in the ON phase
        bool ended = false;         //!< End op emitted
    };

    void refill(unsigned t, ThreadState &ts);
    void genArrivalGap(ThreadState &ts);
    void genKvRequest(unsigned t, ThreadState &ts);
    void genOltpRequest(unsigned t, ThreadState &ts);
    void genTxnRequest(unsigned t, ThreadState &ts);

    // Emit helpers (append to ts.buf).
    void pushCompute(ThreadState &ts, std::uint32_t cycles);
    void pushLoad(ThreadState &ts, std::uint64_t addr, bool is_pm);
    void pushStore(unsigned t, ThreadState &ts, std::uint64_t addr,
                   bool is_pm);
    void pushOFence(ThreadState &ts);
    void pushDFence(ThreadState &ts);

    const ServeScenario scenario;
    const WorkloadParams params;
    const unsigned itemLines;     //!< value payload size in lines
    std::unique_ptr<ZipfSampler> zipf; //!< null = uniform keys
    std::vector<ThreadState> state;
    std::size_t peakBuffered = 0;
};

/**
 * Drain a fresh stream into a TraceSet (thread 0 fully first, then
 * thread 1, ...). Purity makes the pull order irrelevant; this is the
 * bridge to every materialized-path consumer — record/replay, crash
 * experiments, tests. @p op_cap is the same guardrail as
 * TraceRecorder::traceOpCap(): materializing more than op_cap total
 * ops fails loudly (0 = unlimited) instead of exhausting memory.
 */
TraceSet materializeStream(OpSource &src, std::uint64_t op_cap = 0);

} // namespace asap

#endif // ASAP_SERVE_OP_STREAM_HH

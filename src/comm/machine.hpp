// Machine performance model used to convert metered communication volumes
// and local flop counts into modeled wall time.
//
// The paper runs on Summit (6x V100 per node, NVLINK intra-node, dual-rail
// EDR InfiniBand at 23 GB/s inter-node) and reports all results in epoch
// seconds. Our substrate executes on a host CPU, so absolute wall time is
// not comparable; instead every trainer meters (a) alpha-beta communication
// per category and (b) local kernel flops, and this model maps both to
// "Summit-like" seconds. The constants are order-of-magnitude calibrations,
// each documented on its field below (DESIGN.md, "Substitutions", says how
// the benches use the model); the reproduced quantity is the *shape*
// (scaling factors, who dominates), which is insensitive to the constants.
#pragma once

namespace cagnet {

struct MachineModel {
  /// Seconds per message (NCCL collective software latency + wire latency).
  /// The paper observes ~1 ms broadcasts on Summit being latency-bound;
  /// per-hop alpha is lower since a lg(P) tree multiplies it.
  double alpha = 2.0e-5;

  /// Seconds per 8-byte word: dual-rail EDR InfiniBand, 23 GB/s.
  double beta = 8.0 / 23.0e9;

  /// Saturated V100 SpMM (cuSPARSE csrmm2) throughput in GFlop/s.
  double spmm_base_gflops = 120.0;

  /// Degree at which SpMM reaches half its saturated rate. With 30, the
  /// rate ratio between avg degree 62 and 8 is ~3.2x, matching the factor-3
  /// degradation of Yang et al. cited in Section VI-a.
  double spmm_degree_half = 30.0;

  /// Dense width (columns of the dense operand) at which SpMM reaches half
  /// rate; models the "skinny dense matrix" penalty (f/sqrt(P) columns).
  double spmm_width_half = 4.0;

  /// V100 dense GEMM GFlop/s (fp32 peak 15.7 TF; sustained fraction).
  double gemm_gflops = 7000.0;

  /// Effective SpMM rate for a block with the given average row degree and
  /// dense operand width: saturating in both factors, multiplicative, which
  /// mirrors the paper's "multiplicative detrimental impact" remark.
  double spmm_gflops(double avg_degree, double dense_width) const;

  /// Summit-calibrated defaults.
  static MachineModel summit() { return {}; }
};

/// Local-computation meter: accumulates modeled kernel seconds.
class WorkMeter {
 public:
  /// Record one local SpMM: A_block (nnz nonzeros, avg_degree) times a dense
  /// operand with `width` columns. flops = 2 * nnz * width.
  void add_spmm(const MachineModel& m, double nnz, double width,
                double avg_degree);

  /// Record one local dense GEMM of the given flop count.
  void add_gemm(const MachineModel& m, double flops);

  double spmm_seconds() const { return spmm_seconds_; }
  double gemm_seconds() const { return gemm_seconds_; }
  double spmm_flops() const { return spmm_flops_; }
  double gemm_flops() const { return gemm_flops_; }
  double total_seconds() const { return spmm_seconds_ + gemm_seconds_; }

  void clear() { *this = WorkMeter{}; }
  void merge_max(const WorkMeter& other);

  /// Rebuild a meter from serialized values (cross-rank reductions).
  static WorkMeter from_values(double spmm_seconds, double gemm_seconds,
                               double spmm_flops, double gemm_flops) {
    WorkMeter w;
    w.spmm_seconds_ = spmm_seconds;
    w.gemm_seconds_ = gemm_seconds;
    w.spmm_flops_ = spmm_flops;
    w.gemm_flops_ = gemm_flops;
    return w;
  }

 private:
  double spmm_seconds_ = 0;
  double gemm_seconds_ = 0;
  double spmm_flops_ = 0;
  double gemm_flops_ = 0;
};

}  // namespace cagnet

#include "workload/arrivals.h"

#include <cmath>
#include <stdexcept>

namespace jqos::workload {
namespace {

// Lognormal shape: sigma of the underlying normal.
constexpr double kLognormalSigma = 1.0;

}  // namespace

ArrivalProcess::ArrivalProcess(const ArrivalParams& params, double rate_per_sec, Rng rng)
    : params_(params), rate_(rate_per_sec), rng_(rng) {
  if (!(rate_per_sec > 0.0)) {
    throw std::invalid_argument("ArrivalProcess: rate must be positive");
  }
  switch (params_.kind) {
    case ArrivalKind::kPoisson:
      break;
    case ArrivalKind::kPareto:
      // E[Pareto(xm, alpha)] = alpha*xm/(alpha-1); solve for xm at 1/rate.
      if (!(params_.pareto_alpha > 1.0)) {
        throw std::invalid_argument("ArrivalProcess: pareto_alpha must exceed 1");
      }
      pareto_xm_ = (params_.pareto_alpha - 1.0) / (params_.pareto_alpha * rate_);
      break;
    case ArrivalKind::kLognormal:
      // E[LN(mu, sigma)] = exp(mu + sigma^2/2); solve for mu at 1/rate.
      lognormal_mu_ = -std::log(rate_) - 0.5 * kLognormalSigma * kLognormalSigma;
      break;
  }
}

double ArrivalProcess::next_gap() {
  switch (params_.kind) {
    case ArrivalKind::kPoisson:
      return rng_.exponential(1.0 / rate_);
    case ArrivalKind::kPareto:
      return rng_.pareto(pareto_xm_, params_.pareto_alpha);
    case ArrivalKind::kLognormal:
      return rng_.lognormal(lognormal_mu_, kLognormalSigma);
  }
  throw std::logic_error("ArrivalProcess: unknown kind");
}

}  // namespace jqos::workload

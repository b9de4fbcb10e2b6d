#include "jtora/cra.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"

namespace tsajs::jtora {

double eta(const mec::UserEquipment& user) {
  return user.lambda * user.beta_time * user.local_cpu_hz;
}

double CraSolver::server_objective(double sqrt_eta_sum, double server_cpu_hz) {
  TSAJS_REQUIRE(server_cpu_hz > 0.0, "server capacity must be positive");
  return sqrt_eta_sum * sqrt_eta_sum / server_cpu_hz;
}

CraResult CraSolver::solve(const Assignment& x) const {
  CraResult result;
  result.cpu_hz.assign(problem_->num_users(), 0.0);
  // Forwarded users compute on the cloud, not on their uplink server: they
  // leave their server's pool and join the cloud's (a virtual server of
  // capacity f_cloud sharing the same closed form).
  const bool cloud_pool = x.cloud_enabled() && x.num_forwarded() > 0;
  const auto allocate_pool = [&](const std::vector<std::size_t>& users,
                                 double f_s) {
    double sqrt_eta_sum = 0.0;
    for (const std::size_t u : users) {
      sqrt_eta_sum += problem_->sqrt_eta(u);
    }
    if (sqrt_eta_sum == 0.0) {
      // Degenerate case: every user in this pool has beta_time = 0, so
      // the CRA objective does not depend on the split at all (eta_u = 0).
      // Any positive allocation is optimal; use the equal split to keep
      // constraint (12e) satisfied.
      for (const std::size_t u : users) {
        result.cpu_hz[u] = f_s / static_cast<double>(users.size());
      }
      return;
    }
    // Mixed case: users with eta_u = 0 (pure-energy preference) would get a
    // zero share under Eq. 22, violating (12e). The optimum is a supremum
    // (push their share to 0); realize it with an epsilon share carved out
    // of the pool — the objective perturbation is O(kEpsShare).
    constexpr double kEpsShare = 1e-9;
    std::size_t zero_eta_users = 0;
    for (const std::size_t u : users) {
      if (problem_->eta(u) == 0.0) ++zero_eta_users;
    }
    const double pool =
        f_s * (1.0 - kEpsShare * static_cast<double>(zero_eta_users));
    for (const std::size_t u : users) {
      // Eq. 22: f*_us = pool * sqrt(eta_u) / sum sqrt(eta_v).
      result.cpu_hz[u] = problem_->eta(u) == 0.0
                             ? f_s * kEpsShare
                             : pool * problem_->sqrt_eta(u) / sqrt_eta_sum;
    }
    result.objective += server_objective(sqrt_eta_sum, pool);
  };
  for (std::size_t s = 0; s < problem_->num_servers(); ++s) {
    std::vector<std::size_t> users = x.users_on_server(s);
    if (cloud_pool) {
      std::erase_if(users,
                    [&](std::size_t u) { return x.is_forwarded(u); });
    }
    if (users.empty()) continue;
    allocate_pool(users, problem_->server_cpu_hz(s));
  }
  if (cloud_pool) {
    allocate_pool(x.forwarded_users(), problem_->scenario().cloud().cpu_hz);
  }
  return result;
}

double CraSolver::optimal_objective(const Assignment& x) const {
  double total = 0.0;
  const bool cloud_pool = x.cloud_enabled() && x.num_forwarded() > 0;
  double cloud_sqrt_eta_sum = 0.0;
  for (std::size_t s = 0; s < problem_->num_servers(); ++s) {
    double sqrt_eta_sum = 0.0;
    bool any = false;
    for (std::size_t j = 0; j < x.num_subchannels(); ++j) {
      if (const auto u = x.occupant(s, j); u.has_value()) {
        if (cloud_pool && x.is_forwarded(*u)) {
          cloud_sqrt_eta_sum += problem_->sqrt_eta(*u);
          continue;
        }
        sqrt_eta_sum += problem_->sqrt_eta(*u);
        any = true;
      }
    }
    if (any) {
      total += server_objective(sqrt_eta_sum, problem_->server_cpu_hz(s));
    }
  }
  if (cloud_pool) {
    total += server_objective(cloud_sqrt_eta_sum,
                              problem_->scenario().cloud().cpu_hz);
  }
  return total;
}

double CraSolver::objective_of(const Assignment& x,
                               const std::vector<double>& cpu_hz) const {
  TSAJS_REQUIRE(cpu_hz.size() == problem_->num_users(),
                "allocation vector must have one entry per user");
  double total = 0.0;
  for (const std::size_t u : x.offloaded_users()) {
    TSAJS_REQUIRE(cpu_hz[u] > 0.0,
                  "offloaded users need a positive allocation (12e)");
    total += problem_->eta(u) / cpu_hz[u];
  }
  return total;
}

namespace {

// Projects `f` onto the simplex {f_i >= floor, sum f_i = budget}.
// Standard sorting-based Euclidean projection with a variable shift.
void project_to_simplex(std::vector<double>& f, double budget, double floor) {
  const std::size_t n = f.size();
  TSAJS_REQUIRE(budget > floor * static_cast<double>(n),
                "simplex budget too small for the floor");
  // Work on g = f - floor with budget' = budget - n*floor, then add back.
  const double budget_g = budget - floor * static_cast<double>(n);
  std::vector<double> g(n);
  for (std::size_t i = 0; i < n; ++i) g[i] = f[i] - floor;
  std::vector<double> sorted = g;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  double cumulative = 0.0;
  double theta = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cumulative += sorted[i];
    const double candidate =
        (cumulative - budget_g) / static_cast<double>(i + 1);
    if (i + 1 == n || sorted[i + 1] <= candidate) {
      theta = candidate;
      break;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    f[i] = std::max(g[i] - theta, 0.0) + floor;
  }
}

}  // namespace

CraResult CraSolver::solve_numeric(const Assignment& x,
                                   std::size_t iterations) const {
  CraResult result;
  result.cpu_hz.assign(problem_->num_users(), 0.0);
  const bool cloud_pool = x.cloud_enabled() && x.num_forwarded() > 0;
  const auto optimize_pool = [&](const std::vector<std::size_t>& users,
                                 double f_s) {
    const auto n = users.size();
    const double floor = 1e-6 * f_s / static_cast<double>(n);

    // Equal split start.
    std::vector<double> f(n, f_s / static_cast<double>(n));
    std::vector<double> grad(n);
    const auto objective = [&](const std::vector<double>& alloc) {
      double v = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        v += problem_->eta(users[i]) / alloc[i];
      }
      return v;
    };

    double best_obj = objective(f);
    std::vector<double> best = f;
    double step = 0.25 * f_s;
    for (std::size_t it = 0; it < iterations; ++it) {
      double grad_norm = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        grad[i] = -problem_->eta(users[i]) / (f[i] * f[i]);
        grad_norm += grad[i] * grad[i];
      }
      grad_norm = std::sqrt(grad_norm);
      if (grad_norm == 0.0) break;
      std::vector<double> trial = f;
      for (std::size_t i = 0; i < n; ++i) {
        trial[i] -= step * grad[i] / grad_norm;
      }
      project_to_simplex(trial, f_s, floor);
      const double trial_obj = objective(trial);
      if (trial_obj < best_obj) {
        best_obj = trial_obj;
        best = trial;
        f = std::move(trial);
        step *= 1.05;
      } else {
        step *= 0.7;
        if (step < 1e-12 * f_s) break;
      }
    }
    for (std::size_t i = 0; i < n; ++i) result.cpu_hz[users[i]] = best[i];
    result.objective += best_obj;
  };
  for (std::size_t s = 0; s < problem_->num_servers(); ++s) {
    std::vector<std::size_t> users = x.users_on_server(s);
    if (cloud_pool) {
      std::erase_if(users,
                    [&](std::size_t u) { return x.is_forwarded(u); });
    }
    if (users.empty()) continue;
    optimize_pool(users, problem_->server_cpu_hz(s));
  }
  if (cloud_pool) {
    optimize_pool(x.forwarded_users(), problem_->scenario().cloud().cpu_hz);
  }
  return result;
}

}  // namespace tsajs::jtora

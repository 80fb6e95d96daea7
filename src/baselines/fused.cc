#include "baselines/fused.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"

namespace baselines {
namespace {

// Static row/element partitioning across `threads` workers on the shared
// pool — the same parallel structure a compiler's generated code would use.
template <typename Body>
void ParallelRange(long total, int threads, Body body) {
  if (threads <= 1 || total < 2) {
    body(0, total, 0);
    return;
  }
  long chunk = (total + threads - 1) / threads;
  mz::GlobalPool().ParallelFor(0, threads, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      long lo = static_cast<long>(t) * chunk;
      long hi = std::min(total, lo + chunk);
      if (lo < hi) {
        body(lo, hi, static_cast<int>(t));
      }
    }
  });
}

double NormCdf(double x) { return 0.5 * (1.0 + std::erf(x / std::sqrt(2.0))); }

}  // namespace

void BlackScholesFused(long n, const double* price, const double* strike, const double* tte,
                       double rate, double vol, double* call, double* put, int threads) {
  ParallelRange(n, threads, [&](long lo, long hi, int) {
    for (long i = lo; i < hi; ++i) {
      double sqrt_t = std::sqrt(tte[i]);
      double vol_sqrt_t = vol * sqrt_t;
      double d1 = (std::log(price[i] / strike[i]) + (rate + 0.5 * vol * vol) * tte[i]) /
                  vol_sqrt_t;
      double d2 = d1 - vol_sqrt_t;
      double discount = std::exp(-rate * tte[i]);
      call[i] = price[i] * NormCdf(d1) - strike[i] * discount * NormCdf(d2);
      put[i] = strike[i] * discount * NormCdf(-d2) - price[i] * NormCdf(-d1);
    }
  });
}

void HaversineFused(long n, const double* lat, const double* lon, double lat0, double lon0,
                    double* dist, int threads) {
  const double kEarthRadiusMiles = 3959.0;
  double cos_lat0 = std::cos(lat0);
  ParallelRange(n, threads, [&](long lo, long hi, int) {
    for (long i = lo; i < hi; ++i) {
      double dlat = lat[i] - lat0;
      double dlon = lon[i] - lon0;
      double sin_dlat = std::sin(dlat * 0.5);
      double sin_dlon = std::sin(dlon * 0.5);
      double a = sin_dlat * sin_dlat + cos_lat0 * std::cos(lat[i]) * sin_dlon * sin_dlon;
      dist[i] = 2.0 * kEarthRadiusMiles * std::asin(std::sqrt(a));
    }
  });
}

void NBodyStepFused(long n, double* x, double* y, double* z, double* vx, double* vy, double* vz,
                    double dt, double softening, int threads) {
  // Force pass: each worker owns a row range of the interaction matrix.
  std::vector<double> ax(static_cast<std::size_t>(n));
  std::vector<double> ay(static_cast<std::size_t>(n));
  std::vector<double> az(static_cast<std::size_t>(n));
  ParallelRange(n, threads, [&](long lo, long hi, int) {
    for (long i = lo; i < hi; ++i) {
      double axi = 0;
      double ayi = 0;
      double azi = 0;
      for (long j = 0; j < n; ++j) {
        double dx = x[j] - x[i];
        double dy = y[j] - y[i];
        double dz = z[j] - z[i];
        double r2 = dx * dx + dy * dy + dz * dz + softening;
        double inv_r3 = std::pow(r2, -1.5);
        axi += dx * inv_r3;
        ayi += dy * inv_r3;
        azi += dz * inv_r3;
      }
      ax[static_cast<std::size_t>(i)] = axi;
      ay[static_cast<std::size_t>(i)] = ayi;
      az[static_cast<std::size_t>(i)] = azi;
    }
  });
  ParallelRange(n, threads, [&](long lo, long hi, int) {
    for (long i = lo; i < hi; ++i) {
      vx[i] += dt * ax[static_cast<std::size_t>(i)];
      vy[i] += dt * ay[static_cast<std::size_t>(i)];
      vz[i] += dt * az[static_cast<std::size_t>(i)];
      x[i] += dt * vx[i];
      y[i] += dt * vy[i];
      z[i] += dt * vz[i];
    }
  });
}

void ShallowWaterStepFused(matrix::Matrix* h, matrix::Matrix* u, matrix::Matrix* v,
                           matrix::Matrix* h2, matrix::Matrix* u2, matrix::Matrix* v2, double dt,
                           double dx, double g, int threads) {
  long rows = h->rows();
  long cols = h->cols();
  double inv_2dx = 1.0 / (2.0 * dx);
  ParallelRange(rows, threads, [&](long lo, long hi, int) {
    for (long r = lo; r < hi; ++r) {
      long rp = (r + 1) % rows;       // roll(+1): neighbour above in x
      long rm = (r - 1 + rows) % rows;
      const double* h_rp = h->row(rp);
      const double* h_rm = h->row(rm);
      const double* u_rp = u->row(rp);
      const double* u_rm = u->row(rm);
      const double* h_r = h->row(r);
      const double* u_r = u->row(r);
      const double* v_r = v->row(r);
      double* h2_r = h2->row(r);
      double* u2_r = u2->row(r);
      double* v2_r = v2->row(r);
      for (long c = 0; c < cols; ++c) {
        long cp = (c + 1) % cols;
        long cm = (c - 1 + cols) % cols;
        double du_dx = (u_rm[c] - u_rp[c]) * inv_2dx;
        double dv_dy = (v_r[cm] - v_r[cp]) * inv_2dx;
        double dh_dx = (h_rm[c] - h_rp[c]) * inv_2dx;
        double dh_dy = (h_r[cm] - h_r[cp]) * inv_2dx;
        h2_r[c] = h_r[c] - dt * (du_dx + dv_dy);
        u2_r[c] = u_r[c] - (dt * g) * dh_dx;
        v2_r[c] = v_r[c] - (dt * g) * dh_dy;
      }
    }
  });
}

double CrimeIndexFused(const df::DataFrame& cities, int threads) {
  auto population = cities.col("population").doubles();
  auto crimes = cities.col("crimes").doubles();
  long n = cities.num_rows();
  std::vector<double> sums(static_cast<std::size_t>(std::max(threads, 1)), 0.0);
  std::vector<double> counts(static_cast<std::size_t>(std::max(threads, 1)), 0.0);
  ParallelRange(n, threads, [&](long lo, long hi, int t) {
    double sum = 0;
    double count = 0;
    for (long i = lo; i < hi; ++i) {
      if (population[static_cast<std::size_t>(i)] > 500000.0) {
        double index =
            crimes[static_cast<std::size_t>(i)] / population[static_cast<std::size_t>(i)];
        index = index > 0.02 ? 0.032 : index;  // clip outliers, as in the Weld bench
        sum += index * 1000.0;
        count += 1.0;
      }
    }
    sums[static_cast<std::size_t>(t)] = sum;
    counts[static_cast<std::size_t>(t)] = count;
  });
  double sum = 0;
  double count = 0;
  for (std::size_t t = 0; t < sums.size(); ++t) {
    sum += sums[t];
    count += counts[t];
  }
  return count > 0 ? sum / count : 0.0;
}

void DataCleaningFused(const df::DataFrame& requests, double* nan_count, double* valid_sum,
                       int threads) {
  const df::StringRows zips(requests.col("incident_zip"));
  long n = requests.num_rows();
  std::vector<double> nans(static_cast<std::size_t>(std::max(threads, 1)), 0.0);
  std::vector<double> sums(static_cast<std::size_t>(std::max(threads, 1)), 0.0);
  ParallelRange(n, threads, [&](long lo, long hi, int t) {
    double local_nan = 0;
    double local_sum = 0;
    std::string cleaned;
    for (long i = lo; i < hi; ++i) {
      std::string_view zip = zips[i];
      cleaned.clear();
      for (char c : zip) {
        if (c != '-') {
          cleaned.push_back(c);
        }
      }
      if (cleaned.size() > 5) {
        cleaned.resize(5);
      }
      bool numeric = !cleaned.empty() && cleaned.size() == 5 &&
                     std::all_of(cleaned.begin(), cleaned.end(),
                                 [](char c) { return c >= '0' && c <= '9'; });
      if (numeric) {
        local_sum += std::stod(cleaned);
      } else {
        local_nan += 1;
      }
    }
    nans[static_cast<std::size_t>(t)] = local_nan;
    sums[static_cast<std::size_t>(t)] = local_sum;
  });
  *nan_count = 0;
  *valid_sum = 0;
  for (std::size_t t = 0; t < nans.size(); ++t) {
    *nan_count += nans[t];
    *valid_sum += sums[t];
  }
}

df::DataFrame BirthAnalysisFused(const df::DataFrame& births, int threads) {
  const df::StringRows names(births.col("name"));
  auto years = births.col("year").ints();
  auto genders = births.col("gender").ints();
  auto counts = births.col("births").doubles();
  long n = births.num_rows();

  using Key = std::pair<std::int64_t, std::int64_t>;
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::int64_t>()(k.first * 131 + k.second);
    }
  };
  std::vector<std::unordered_map<Key, double, KeyHash>> maps(
      static_cast<std::size_t>(std::max(threads, 1)));
  ParallelRange(n, threads, [&](long lo, long hi, int t) {
    auto& map = maps[static_cast<std::size_t>(t)];
    for (long i = lo; i < hi; ++i) {
      if (names[i].starts_with("Lesl")) {
        map[{years[static_cast<std::size_t>(i)], genders[static_cast<std::size_t>(i)]}] +=
            counts[static_cast<std::size_t>(i)];
      }
    }
  });
  std::unordered_map<Key, double, KeyHash> merged;
  for (auto& map : maps) {
    for (const auto& [key, sum] : map) {
      merged[key] += sum;
    }
  }
  std::vector<std::int64_t> out_year;
  std::vector<std::int64_t> out_gender;
  std::vector<double> out_sum;
  for (const auto& [key, sum] : merged) {
    out_year.push_back(key.first);
    out_gender.push_back(key.second);
    out_sum.push_back(sum);
  }
  return df::DataFrame::Make({"year", "gender", "sum"},
                             {df::Column::Ints(std::move(out_year)),
                              df::Column::Ints(std::move(out_gender)),
                              df::Column::Doubles(std::move(out_sum))});
}

df::DataFrame MovieLensFused(const df::DataFrame& ratings, const df::DataFrame& users,
                             int threads) {
  auto r_user = ratings.col("user").ints();
  auto r_movie = ratings.col("movie").ints();
  auto r_rating = ratings.col("rating").doubles();
  auto u_user = users.col("user").ints();
  auto u_gender = users.col("gender").ints();

  std::unordered_map<std::int64_t, std::int64_t> gender_of;
  gender_of.reserve(u_user.size());
  for (std::size_t i = 0; i < u_user.size(); ++i) {
    gender_of[u_user[i]] = u_gender[i];
  }

  using Key = std::pair<std::int64_t, std::int64_t>;  // (movie, gender)
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::int64_t>()(k.first * 131 + k.second);
    }
  };
  struct SumCount {
    double sum = 0;
    double count = 0;
  };
  long n = ratings.num_rows();
  std::vector<std::unordered_map<Key, SumCount, KeyHash>> maps(
      static_cast<std::size_t>(std::max(threads, 1)));
  ParallelRange(n, threads, [&](long lo, long hi, int t) {
    auto& map = maps[static_cast<std::size_t>(t)];
    for (long i = lo; i < hi; ++i) {
      auto it = gender_of.find(r_user[static_cast<std::size_t>(i)]);
      if (it == gender_of.end()) {
        continue;
      }
      SumCount& sc = map[{r_movie[static_cast<std::size_t>(i)], it->second}];
      sc.sum += r_rating[static_cast<std::size_t>(i)];
      sc.count += 1;
    }
  });
  std::unordered_map<Key, SumCount, KeyHash> merged;
  for (auto& map : maps) {
    for (const auto& [key, sc] : map) {
      merged[key].sum += sc.sum;
      merged[key].count += sc.count;
    }
  }
  std::vector<std::int64_t> out_movie;
  std::vector<std::int64_t> out_gender;
  std::vector<double> out_sum;
  std::vector<double> out_count;
  for (const auto& [key, sc] : merged) {
    out_movie.push_back(key.first);
    out_gender.push_back(key.second);
    out_sum.push_back(sc.sum);
    out_count.push_back(sc.count);
  }
  return df::DataFrame::Make(
      {"movie", "gender", "sum", "count"},
      {df::Column::Ints(std::move(out_movie)), df::Column::Ints(std::move(out_gender)),
       df::Column::Doubles(std::move(out_sum)), df::Column::Doubles(std::move(out_count))});
}

// ---- fused image pipeline ----

namespace {

std::uint8_t Clamp8(double v) { return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0)); }

struct ChannelLuts {
  std::uint8_t r[256];
  std::uint8_t g[256];
  std::uint8_t b[256];

  void InitIdentity() {
    for (int i = 0; i < 256; ++i) {
      r[i] = g[i] = b[i] = static_cast<std::uint8_t>(i);
    }
  }

  // Composes `next` after the current tables: lut'[i] = next(lut[i]).
  template <typename Fn>
  void ComposePerChannel(Fn next) {
    for (int i = 0; i < 256; ++i) {
      r[i] = next(r[i], 0);
      g[i] = next(g[i], 1);
      b[i] = next(b[i], 2);
    }
  }
};

// Mirrors the library's LUT constructions exactly so fused output is
// bit-identical to the chained library calls for LUT-able ops.
void ComposeOp(ChannelLuts* luts, const PointOp& op) {
  switch (op.kind) {
    case PointOp::Kind::kGamma: {
      double inv = 1.0 / op.p0;
      luts->ComposePerChannel([&](std::uint8_t v, int) {
        return Clamp8(255.0 * std::pow(v / 255.0, inv));
      });
      break;
    }
    case PointOp::Kind::kLevel: {
      double inv = 1.0 / op.p2;
      luts->ComposePerChannel([&](std::uint8_t v, int) {
        double x = (v - op.p0) / (op.p1 - op.p0);
        x = std::clamp(x, 0.0, 1.0);
        return Clamp8(255.0 * std::pow(x, inv));
      });
      break;
    }
    case PointOp::Kind::kColorize: {
      luts->ComposePerChannel([&](std::uint8_t v, int channel) {
        double target = op.rgb[channel];
        return Clamp8(v + (target - v) * op.p0);
      });
      break;
    }
    case PointOp::Kind::kSigmoidalContrast: {
      double mid = op.p1 / 255.0;
      double lo = 1.0 / (1.0 + std::exp(op.p0 * mid));
      double hi = 1.0 / (1.0 + std::exp(op.p0 * (mid - 1.0)));
      luts->ComposePerChannel([&](std::uint8_t v, int) {
        double x = v / 255.0;
        double s = 1.0 / (1.0 + std::exp(op.p0 * (mid - x)));
        return Clamp8(255.0 * (s - lo) / (hi - lo));
      });
      break;
    }
    case PointOp::Kind::kBrightnessContrast: {
      luts->ComposePerChannel([&](std::uint8_t v, int) {
        return Clamp8((v - 127.5) * op.p1 + 127.5 + op.p0);
      });
      break;
    }
    case PointOp::Kind::kModulate:
      MZ_THROW("kModulate is not LUT-able");
  }
}

void ApplyLuts(img::Image* image, const ChannelLuts& luts, int threads) {
  long width = image->width();
  ParallelRange(image->height(), threads, [&](long lo, long hi, int) {
    for (long y = lo; y < hi; ++y) {
      std::uint8_t* p = image->row(y);
      for (long x = 0; x < width; ++x) {
        p[x * 3] = luts.r[p[x * 3]];
        p[x * 3 + 1] = luts.g[p[x * 3 + 1]];
        p[x * 3 + 2] = luts.b[p[x * 3 + 2]];
      }
    }
  });
}

const PointOp kNashville[] = {
    // colortone shadows toward deep blue, highlights toward cream,
    // then the classic contrast + saturation pump and warm gamma.
    {PointOp::Kind::kColorize, 0.20, 0, 0, {0x22, 0x2b, 0x6d}},
    {PointOp::Kind::kLevel, 12.0, 255.0, 1.0, {0, 0, 0}},
    {PointOp::Kind::kColorize, 0.12, 0, 0, {0xf7, 0xda, 0xae}},
    {PointOp::Kind::kSigmoidalContrast, 3.0, 127.0, 0, {0, 0, 0}},
    {PointOp::Kind::kModulate, 100.0, 150.0, 100.0, {0, 0, 0}},
    {PointOp::Kind::kGamma, 1.15, 0, 0, {0, 0, 0}},
    {PointOp::Kind::kBrightnessContrast, 4.0, 1.05, 0, {0, 0, 0}},
    {PointOp::Kind::kLevel, 0.0, 245.0, 1.05, {0, 0, 0}},
};

const PointOp kGotham[] = {
    // desaturate hard, cool blue tone, crush the blacks, sharpen contrast.
    {PointOp::Kind::kModulate, 120.0, 10.0, 100.0, {0, 0, 0}},
    {PointOp::Kind::kColorize, 0.18, 0, 0, {0x22, 0x2b, 0x6d}},
    {PointOp::Kind::kGamma, 0.90, 0, 0, {0, 0, 0}},
    {PointOp::Kind::kSigmoidalContrast, 5.0, 120.0, 0, {0, 0, 0}},
    {PointOp::Kind::kLevel, 20.0, 240.0, 1.0, {0, 0, 0}},
};

}  // namespace

void FusedPointPipeline(img::Image* image, std::span<const PointOp> recipe, int threads) {
  ChannelLuts luts;
  luts.InitIdentity();
  bool dirty = false;
  for (const PointOp& op : recipe) {
    if (op.kind == PointOp::Kind::kModulate) {
      if (dirty) {
        ApplyLuts(image, luts, threads);
        luts.InitIdentity();
        dirty = false;
      }
      img::ModulateHSV(image, op.p0, op.p1, op.p2);
      continue;
    }
    ComposeOp(&luts, op);
    dirty = true;
  }
  if (dirty) {
    ApplyLuts(image, luts, threads);
  }
}

std::span<const PointOp> NashvilleRecipe() { return kNashville; }
std::span<const PointOp> GothamRecipe() { return kGotham; }

}  // namespace baselines

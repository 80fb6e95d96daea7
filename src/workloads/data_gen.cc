#include "workloads/data_gen.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"

namespace workloads {

df::DataFrame Make311Requests(long rows, std::uint64_t seed) {
  mz::Rng rng(seed);
  df::StringColumnBuilder zips;
  df::StringColumnBuilder complaints;
  const char* kComplaints[] = {"Noise", "Heating", "Street Condition", "Rodent", "Water"};
  for (long i = 0; i < rows; ++i) {
    double dice = rng.NextDouble();
    std::string zip = std::to_string(10000 + rng.NextBounded(89999));
    if (dice < 0.70) {
      // clean 5-digit
    } else if (dice < 0.80) {
      zip += "-" + std::to_string(1000 + rng.NextBounded(8999));  // ZIP+4 with hyphen
    } else if (dice < 0.88) {
      zip += std::to_string(1000 + rng.NextBounded(8999));  // 9 digits, no hyphen
    } else if (dice < 0.94) {
      zip = rng.NextBool(0.5) ? "N/A" : "NO CLUE";
    } else {
      zip = "";
    }
    zips.Append(zip);
    complaints.Append(kComplaints[rng.NextBounded(5)]);
  }
  return df::DataFrame::Make({"incident_zip", "complaint_type"},
                             {zips.Finish(), complaints.Finish()});
}

df::DataFrame MakeCityStats(long rows, std::uint64_t seed) {
  mz::Rng rng(seed);
  df::StringColumnBuilder cities;
  std::vector<double> population;
  std::vector<double> crimes;
  // Every name is at most as long as "city<rows>".
  cities.Reserve(rows, rows * static_cast<long>(("city" + std::to_string(rows)).size()));
  population.reserve(static_cast<std::size_t>(rows));
  crimes.reserve(static_cast<std::size_t>(rows));
  for (long i = 0; i < rows; ++i) {
    cities.Append("city" + std::to_string(i));
    // Log-ish spread: many small towns, few metropolises.
    double p = 1000.0 * std::exp(rng.NextDouble(0.0, 7.5));
    population.push_back(p);
    crimes.push_back(p * rng.NextDouble(0.001, 0.03));
  }
  return df::DataFrame::Make(
      {"city", "population", "crimes"},
      {cities.Finish(), df::Column::Doubles(std::move(population)),
       df::Column::Doubles(std::move(crimes))});
}

df::DataFrame MakeBabyNames(long rows, std::uint64_t seed) {
  mz::Rng rng(seed);
  const char* kNames[] = {"Leslie", "Lesley", "Leslee", "Lesli",  "Lesly",  "James",
                          "Mary",   "John",   "Linda",  "Robert", "Susan",  "Michael",
                          "Karen",  "David",  "Nancy",  "Carol",  "Daniel", "Laura"};
  df::StringColumnBuilder names;
  std::vector<std::int64_t> years;
  std::vector<std::int64_t> genders;
  std::vector<double> births;
  std::size_t longest = 0;
  for (const char* name : kNames) {
    longest = std::max(longest, std::strlen(name));
  }
  names.Reserve(rows, rows * static_cast<long>(longest));
  years.reserve(static_cast<std::size_t>(rows));
  genders.reserve(static_cast<std::size_t>(rows));
  births.reserve(static_cast<std::size_t>(rows));
  for (long i = 0; i < rows; ++i) {
    names.Append(kNames[rng.NextBounded(18)]);
    years.push_back(1940 + static_cast<std::int64_t>(rng.NextBounded(70)));
    genders.push_back(static_cast<std::int64_t>(rng.NextBounded(2)));
    births.push_back(static_cast<double>(5 + rng.NextBounded(2000)));
  }
  return df::DataFrame::Make(
      {"name", "year", "gender", "births"},
      {names.Finish(), df::Column::Ints(std::move(years)),
       df::Column::Ints(std::move(genders)), df::Column::Doubles(std::move(births))});
}

MovieLensTables MakeMovieLens(long num_ratings, long num_users, long num_movies,
                              std::uint64_t seed) {
  mz::Rng rng(seed);
  MovieLensTables out;

  std::vector<std::int64_t> r_user;
  std::vector<std::int64_t> r_movie;
  std::vector<double> r_rating;
  r_user.reserve(static_cast<std::size_t>(num_ratings));
  r_movie.reserve(static_cast<std::size_t>(num_ratings));
  r_rating.reserve(static_cast<std::size_t>(num_ratings));
  for (long i = 0; i < num_ratings; ++i) {
    r_user.push_back(static_cast<std::int64_t>(rng.NextBounded(
        static_cast<std::uint64_t>(num_users))));
    // Popularity skew: square the uniform draw to favour low movie ids.
    double u = rng.NextDouble();
    r_movie.push_back(static_cast<std::int64_t>(u * u * static_cast<double>(num_movies)));
    r_rating.push_back(static_cast<double>(1 + rng.NextBounded(5)));
  }
  out.ratings = df::DataFrame::Make(
      {"user", "movie", "rating"},
      {df::Column::Ints(std::move(r_user)), df::Column::Ints(std::move(r_movie)),
       df::Column::Doubles(std::move(r_rating))});

  std::vector<std::int64_t> u_user;
  std::vector<std::int64_t> u_gender;
  u_user.reserve(static_cast<std::size_t>(num_users));
  u_gender.reserve(static_cast<std::size_t>(num_users));
  for (long i = 0; i < num_users; ++i) {
    u_user.push_back(i);
    u_gender.push_back(static_cast<std::int64_t>(rng.NextBounded(2)));
  }
  out.users = df::DataFrame::Make(
      {"user", "gender"},
      {df::Column::Ints(std::move(u_user)), df::Column::Ints(std::move(u_gender))});

  std::vector<std::int64_t> m_movie;
  df::StringColumnBuilder m_title;
  m_movie.reserve(static_cast<std::size_t>(num_movies));
  m_title.Reserve(num_movies,
                  num_movies * static_cast<long>(("movie_" + std::to_string(num_movies)).size()));
  for (long i = 0; i < num_movies; ++i) {
    m_movie.push_back(i);
    m_title.Append("movie_" + std::to_string(i));
  }
  out.movies = df::DataFrame::Make(
      {"movie", "title"},
      {df::Column::Ints(std::move(m_movie)), m_title.Finish()});
  return out;
}

}  // namespace workloads

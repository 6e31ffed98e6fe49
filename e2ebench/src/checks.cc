// Correctness checkers. Each compares an operation's output with a
// property the method must have or with the benchmark's own computation
// over the source facts; none calls into the engine under test.
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/strings.h"
#include "e2e.h"

namespace e2e {

using rdx::StrCat;

namespace {

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '?';
}

// Parses "{X(a, b), Y(c)}" or "{(a, b), (c, d)}" (relation names
// optional) starting at text[*pos]; advances *pos past the closing '}'.
std::string ParseSet(std::string_view text, std::size_t* pos,
                     RawInstance* out) {
  std::size_t i = *pos;
  auto expect = [&](std::string_view lit) {
    if (text.substr(i, lit.size()) != lit) return false;
    i += lit.size();
    return true;
  };
  if (!expect("{")) return StrCat("expected '{' at byte ", i);
  if (expect("}")) {
    *pos = i;
    return "";
  }
  while (true) {
    RawFact fact;
    while (i < text.size() && IsNameChar(text[i])) fact.rel += text[i++];
    if (!expect("(")) return StrCat("expected '(' at byte ", i);
    while (true) {
      std::string arg;
      while (i < text.size() && IsNameChar(text[i])) arg += text[i++];
      if (arg.empty()) return StrCat("empty argument at byte ", i);
      fact.args.push_back(std::move(arg));
      if (expect(")")) break;
      if (!expect(", ")) return StrCat("expected ', ' at byte ", i);
    }
    out->push_back(std::move(fact));
    if (expect("}")) break;
    if (!expect(", ")) return StrCat("expected ', ' or '}' at byte ", i);
  }
  *pos = i;
  return "";
}

std::string ParseLine(std::string_view output, RawInstance* out) {
  std::size_t pos = 0;
  std::string err = ParseSet(output, &pos, out);
  if (!err.empty()) return err;
  if (output.substr(pos) != "\n") return "trailing bytes after the set";
  return "";
}

// Sorts `set` and fingerprints it (element count plus the hash of the
// sorted elements); false if it lists an element twice.
bool SetFingerprint(RawInstance& set, Fingerprint* out) {
  std::sort(set.begin(), set.end());
  if (std::adjacent_find(set.begin(), set.end()) != set.end()) return false;
  Fingerprint f;
  f.size = set.size();
  for (const RawFact& e : set) {
    f.Add(e.rel);
    f.Add("(");
    for (const std::string& v : e.args) {
      f.Add(v);
      f.Add(",");
    }
    f.Add(")");
  }
  *out = f;
  return true;
}

// The fingerprint of `want` as a set (duplicates removed).
Fingerprint Expected(RawInstance want) {
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  Fingerprint f;
  SetFingerprint(want, &f);
  return f;
}

std::string CompareSets(RawInstance got, const Fingerprint& want) {
  Fingerprint f;
  if (!SetFingerprint(got, &f)) return "reply lists a fact twice";
  if (f != want) {
    return StrCat("reply has ", got.size(), " element(s), expected ",
                  want.size, " (or the elements differ)");
  }
  return "";
}

std::string Render(const RawInstance& set) {
  std::string out = "{";
  for (std::size_t i = 0; i < set.size(); ++i) {
    out += StrCat(i == 0 ? "" : ", ", set[i].rel, "(");
    for (std::size_t j = 0; j < set[i].args.size(); ++j) {
      out += StrCat(j == 0 ? "" : ", ", set[i].args[j]);
    }
    out += ")";
  }
  return out + "}";
}

// "{A, B, ...}" -> "{B, ...}": the first element of the first set dropped.
std::string DropFirst(std::string_view output) {
  std::string s(output);
  const std::size_t open = s.find('{');
  if (open == std::string::npos) return s + "x";
  if (s.compare(open, 2, "{}") == 0) {
    s.insert(open + 1, "Bogus(x)");
    return s;
  }
  std::size_t i = open + 1;
  int depth = 0;
  for (; i < s.size(); ++i) {
    if (s[i] == '(') ++depth;
    if (s[i] == ')') --depth;
    if (depth == 0 && (s[i] == ',' || s[i] == '}')) break;
  }
  if (i < s.size() && s[i] == ',') {
    s.erase(open + 1, i + 2 - (open + 1));
  } else {
    s.erase(open + 1, i - (open + 1));
  }
  return s;
}

// Swaps the first arguments of the first element of the first set and of
// the last element that differs from it both in its first argument and in
// the rest. The result has the same elements count and the same values
// the same number of times, but is a different set; "" if no such pair.
std::string SwapFirstArgs(std::string_view output) {
  const std::size_t open = output.find('{');
  if (open == std::string_view::npos) return "";
  std::size_t end = open;
  RawInstance set;
  if (!ParseSet(output, &end, &set).empty() || set.size() < 2) return "";
  RawFact& first = set.front();
  auto rest = [](const RawFact& f) {
    return std::make_pair(f.rel, std::vector<std::string>(f.args.begin() + 1,
                                                          f.args.end()));
  };
  for (std::size_t i = set.size() - 1; i > 0; --i) {
    RawFact& other = set[i];
    if (other.args[0] != first.args[0] && rest(other) != rest(first)) {
      std::swap(first.args[0], other.args[0]);
      std::string s(output);
      s.replace(open, end - open, Render(set));
      return s;
    }
  }
  return "";
}

}  // namespace

// chase_M(I) for the decomposition mapping: the two projections.
Checker CheckDecomposition(const RawInstance& source) {
  RawInstance want;
  for (const RawFact& f : source) {
    want.push_back({"BxDecQ", {f.args[0], f.args[1]}});
    want.push_back({"BxDecR", {f.args[1], f.args[2]}});
  }
  return [want = Expected(std::move(want))](std::string_view output) {
    RawInstance got;
    if (std::string err = ParseLine(output, &got); !err.empty()) return err;
    return CompareSets(std::move(got), want);
  };
}

// The core of chase_M(I) for BxBlP(x,y) -> EXISTS z: BxBlQ(x,z) &
// BxBlQ(y,z) keeps one null per distinct unordered non-loop pair: 2 facts
// per pair, 4 per hub, and every null occurs exactly twice. (I, core) |= M
// when every source pair has a witness null; with one null per pair, that
// means the pairs the nulls link are exactly the source pairs. A loop
// BxBlP(x, x) is witnessed by any null of x, and every looped vertex lies
// on a pair.
Checker CheckCoTargetCore(const RawInstance& source, std::size_t hubs) {
  RawInstance pairs;
  std::set<std::string> paired;
  for (const RawFact& f : source) {
    if (f.args[0] != f.args[1]) {
      const auto [a, b] = std::minmax(f.args[0], f.args[1]);
      pairs.push_back({"", {a, b}});
      paired.insert(a);
      paired.insert(b);
    }
  }
  bool loops_paired = true;
  for (const RawFact& f : source) loops_paired &= paired.count(f.args[0]) > 0;
  return [want = Expected(std::move(pairs)), hubs,
          loops_paired](std::string_view output) -> std::string {
    if (!loops_paired) return "source has a loop off every pair";
    RawInstance got;
    if (std::string err = ParseLine(output, &got); !err.empty()) return err;
    if (got.size() != 4 * hubs || got.size() != 2 * want.size) {
      return StrCat("core has ", got.size(), " facts, expected 4 x ", hubs,
                    " hubs");
    }
    std::map<std::string, std::vector<std::string>> holders;  // null -> x
    for (const RawFact& f : got) {
      if (f.rel != "BxBlQ" || f.args.size() != 2 || IsNullArg(f.args[0]) ||
          !IsNullArg(f.args[1])) {
        return StrCat("unexpected fact ", f.rel, "(", f.args[0], ", ...)");
      }
      holders[f.args[1]].push_back(f.args[0]);
    }
    RawInstance linked;
    for (const auto& [null, xs] : holders) {
      if (xs.size() != 2) {
        return StrCat("null ", null, " occurs ", xs.size(), " times");
      }
      const auto [a, b] = std::minmax(xs[0], xs[1]);
      linked.push_back({"", {a, b}});
    }
    Fingerprint f;
    if (!SetFingerprint(linked, &f) || f != want) {
      return std::string(
          "the nulls do not link exactly the source pairs: a source fact "
          "has no witness null");
    }
    return std::string();
  };
}

// For a source of disjoint simple paths with constant endpoints, the core
// universal solution of PathSplit is the chase itself: each path
// v0 -> v1 -> ... becomes v0 -> z -> v1' -> z' -> ..., constants fixed and
// source nulls renamed injectively. The checker keeps the source paths as
// one string (vertices separated by ' ', paths by '\n'), walks each path
// through the reply and counts 2 facts per distinct source fact.
Checker CheckPathSplit(const RawInstance& source) {
  const std::set<RawFact> distinct(source.begin(), source.end());
  std::map<std::string, std::string> next;
  std::set<std::string> has_pred;
  bool simple = true;
  for (const RawFact& f : distinct) {
    simple &= next.emplace(f.args[0], f.args[1]).second &&
              has_pred.insert(f.args[1]).second;
  }
  std::string paths;
  std::size_t walked = 0;
  for (const auto& entry : next) {
    const std::string& start = entry.first;
    if (has_pred.count(start)) continue;
    simple &= !IsNullArg(start);
    paths += start;
    for (auto it = next.find(start); it != next.end();
         it = next.find(it->second)) {
      paths += StrCat(" ", it->second);
      ++walked;
    }
    paths += "\n";
  }
  simple &= walked == distinct.size();  // no cycles
  const std::size_t edges = distinct.size();
  return [paths = std::move(paths), edges,
          simple](std::string_view output) -> std::string {
    if (!simple) return "source is not a set of simple paths";
    RawInstance got;
    if (std::string err = ParseLine(output, &got); !err.empty()) return err;
    if (got.size() != 2 * edges) {
      return StrCat("reply has ", got.size(), " facts, expected ", 2 * edges);
    }
    std::map<std::string, std::vector<std::string>> out;
    for (const RawFact& f : got) {
      if (f.rel != "BxPsQ" || f.args.size() != 2) return std::string("bad fact");
      out[f.args[0]].push_back(f.args[1]);
    }
    std::map<std::string, std::string> image;  // source null -> reply null
    std::set<std::string> used;
    auto step = [&](const std::string& from) -> const std::string* {
      auto it = out.find(from);
      return it != out.end() && it->second.size() == 1 ? &it->second[0]
                                                       : nullptr;
    };
    std::string_view rest = paths;
    while (!rest.empty()) {
      std::string_view path = rest.substr(0, rest.find('\n'));
      rest.remove_prefix(path.size() + 1);
      std::size_t space = path.find(' ');
      std::string at(path.substr(0, space));  // reply node of the vertex
      while (space != std::string_view::npos) {
        const std::size_t from = space + 1;
        space = path.find(' ', from);
        const std::string w(path.substr(
            from, space == std::string_view::npos ? space : space - from));
        const std::string* z = step(at);
        if (z == nullptr || !IsNullArg(*z)) {
          return StrCat("no unique null successor of ", at);
        }
        const std::string* y = step(*z);
        if (y == nullptr) return StrCat("no unique successor of ", *z);
        if (!IsNullArg(w)) {
          if (*y != w) return StrCat("path reaches ", *y, ", expected ", w);
        } else if (!IsNullArg(*y) || !used.insert(*y).second ||
                   !image.emplace(w, *y).second) {
          return StrCat("source null ", w, " has no injective image");
        }
        at = *y;
      }
    }
    return std::string();
  };
}

// Theorem 6.4: M' is an extended inverse of PathSplit, so the reverse
// certain answers of q(x,z) :- P(x,y) & P(y,z) are q(I) with every tuple
// holding a null discarded.
Checker CheckPathSplitCertain(const RawInstance& source) {
  std::map<std::string, std::vector<std::string>> succ;
  for (const RawFact& f : source) succ[f.args[0]].push_back(f.args[1]);
  RawInstance want;
  for (const RawFact& f : source) {
    if (IsNullArg(f.args[0])) continue;
    for (const std::string& z : succ[f.args[1]]) {
      if (!IsNullArg(z)) want.push_back({"", {f.args[0], z}});
    }
  }
  return [want = Expected(std::move(want))](std::string_view output) {
    RawInstance got;
    if (std::string err = ParseLine(output, &got); !err.empty()) return err;
    return CompareSets(std::move(got), want);
  };
}

// Under Sigma*, each diagonal BxSlPp(d, d) may come from BxSlT(d) or
// BxSlP(d, d), so the certain answers of q(x,y) :- BxSlP(x,y) are exactly
// the non-diagonal BxSlP facts.
Checker CheckSelfLoopCertain(const RawInstance& source) {
  RawInstance want;
  for (const RawFact& f : source) {
    if (f.rel == "BxSlP" && f.args[0] != f.args[1]) {
      want.push_back({"", f.args});
    }
  }
  return [want = Expected(std::move(want))](std::string_view output) {
    RawInstance got;
    if (std::string err = ParseLine(output, &got); !err.empty()) return err;
    return CompareSets(std::move(got), want);
  };
}

// chase_{Sigma*}(J) has one world per choice of origin for each of the k
// diagonal facts: 2^k distinct worlds, each the non-diagonal facts plus
// exactly one of BxSlT(d) / BxSlP(d, d) per diagonal d.
Checker CheckSelfLoopWorlds(const RawInstance& target, std::size_t diagonals) {
  RawInstance base;
  std::vector<std::string> diag;
  for (const RawFact& f : target) {
    if (f.args[0] == f.args[1]) {
      diag.push_back(f.args[0]);
    } else {
      base.push_back({"BxSlP", f.args});
    }
  }
  return [base = Expected(std::move(base)), diag = std::move(diag),
          diagonals](std::string_view output) -> std::string {
    if (diag.size() != diagonals) return "bad target shape";
    const std::size_t want_worlds = std::size_t{1} << diagonals;
    const std::string header = StrCat(want_worlds, " possible world(s):\n");
    if (output.substr(0, header.size()) != header) {
      return StrCat("header is not '", header.substr(0, header.size() - 1),
                    "'");
    }
    std::set<std::vector<bool>> choices;
    std::size_t pos = header.size();
    for (std::size_t w = 0; w < want_worlds; ++w) {
      if (output.substr(pos, 2) != "  ") return StrCat("world ", w, " missing");
      pos += 2;
      RawInstance world;
      if (std::string err = ParseSet(output, &pos, &world); !err.empty()) {
        return err;
      }
      if (output.substr(pos, 1) != "\n") return std::string("missing newline");
      ++pos;
      std::vector<bool> choice;
      for (const std::string& d : diag) {
        const RawFact t{"BxSlT", {d}}, p{"BxSlP", {d, d}};
        const bool has_t = std::count(world.begin(), world.end(), t) == 1;
        const bool has_p = std::count(world.begin(), world.end(), p) == 1;
        if (has_t == has_p) return StrCat("world ", w, ": bad origin of ", d);
        choice.push_back(has_t);
        world.erase(std::remove(world.begin(), world.end(), has_t ? t : p),
                    world.end());
      }
      Fingerprint f;
      if (!SetFingerprint(world, &f) || f != base) {
        return StrCat("world ", w, ": wrong base facts");
      }
      choices.insert(choice);
    }
    if (pos != output.size()) return std::string("trailing bytes");
    if (choices.size() != want_worlds) return std::string("repeated world");
    return std::string();
  };
}

Checker CheckVerdict(bool expected) {
  return [expected](std::string_view output) {
    const std::string_view want = expected ? "true" : "false";
    return output == want ? std::string()
                          : StrCat("verdict ", output, ", expected ", want);
  };
}

std::vector<std::string> Corruptions(std::string_view output) {
  if (output == "true") return {"false"};
  if (output == "false") return {"true"};
  std::vector<std::string> out = {DropFirst(output)};
  if (std::string swapped = SwapFirstArgs(output); !swapped.empty()) {
    out.push_back(std::move(swapped));
  }
  return out;
}

}  // namespace e2e

#include "mlogic/factor.hpp"

#include <algorithm>

#include "mlogic/division.hpp"

namespace sitm {

std::unique_ptr<FactoredForm> FactoredForm::literal(int var, bool positive) {
  auto node = std::make_unique<FactoredForm>();
  node->kind = Kind::kLiteral;
  node->var = var;
  node->positive = positive;
  return node;
}

std::unique_ptr<FactoredForm> FactoredForm::constant(bool one) {
  auto node = std::make_unique<FactoredForm>();
  node->kind = one ? Kind::kOne : Kind::kZero;
  return node;
}

std::string FactoredForm::to_string(const std::vector<std::string>& names,
                                    const FactoredSyntax& syntax) const {
  switch (kind) {
    case Kind::kLiteral:
      if (positive) return names[static_cast<std::size_t>(var)];
      return syntax.not_prefix + names[static_cast<std::size_t>(var)] +
             syntax.not_suffix;
    case Kind::kZero:
      return syntax.zero;
    case Kind::kOne:
      return syntax.one;
    case Kind::kAnd:
    case Kind::kOr: {
      const bool is_and = kind == Kind::kAnd;
      std::string out;
      for (const auto& child : children) {
        if (!out.empty()) out += is_and ? syntax.and_op : syntax.or_op;
        const std::string term = child->to_string(names, syntax);
        out += is_and && child->kind == Kind::kOr ? "(" + term + ")" : term;
      }
      return out;
    }
  }
  return syntax.zero;
}

namespace {

std::unique_ptr<FactoredForm> cube_to_form(const Cube& cube) {
  if (cube.is_one()) return FactoredForm::constant(true);
  auto node = std::make_unique<FactoredForm>();
  node->kind = FactoredForm::Kind::kAnd;
  std::uint64_t bits = cube.care;
  while (bits) {
    const int v = __builtin_ctzll(bits);
    bits &= bits - 1;
    node->children.push_back(FactoredForm::literal(v, cube.polarity(v)));
  }
  if (node->children.size() == 1) return std::move(node->children[0]);
  return node;
}

std::unique_ptr<FactoredForm> factor_rec(const Cover& f);

/// AND of two factored sub-results, flattening nested ANDs.
std::unique_ptr<FactoredForm> make_and(std::unique_ptr<FactoredForm> a,
                                       std::unique_ptr<FactoredForm> b) {
  if (a->kind == FactoredForm::Kind::kOne) return b;
  if (b->kind == FactoredForm::Kind::kOne) return a;
  auto node = std::make_unique<FactoredForm>();
  node->kind = FactoredForm::Kind::kAnd;
  auto absorb = [&](std::unique_ptr<FactoredForm> part) {
    if (part->kind == FactoredForm::Kind::kAnd) {
      for (auto& child : part->children)
        node->children.push_back(std::move(child));
    } else {
      node->children.push_back(std::move(part));
    }
  };
  absorb(std::move(a));
  absorb(std::move(b));
  return node;
}

std::unique_ptr<FactoredForm> make_or(std::unique_ptr<FactoredForm> a,
                                      std::unique_ptr<FactoredForm> b) {
  if (a->kind == FactoredForm::Kind::kZero) return b;
  if (b->kind == FactoredForm::Kind::kZero) return a;
  auto node = std::make_unique<FactoredForm>();
  node->kind = FactoredForm::Kind::kOr;
  auto absorb = [&](std::unique_ptr<FactoredForm> part) {
    if (part->kind == FactoredForm::Kind::kOr) {
      for (auto& child : part->children)
        node->children.push_back(std::move(child));
    } else {
      node->children.push_back(std::move(part));
    }
  };
  absorb(std::move(a));
  absorb(std::move(b));
  return node;
}

std::unique_ptr<FactoredForm> factor_rec(const Cover& f) {
  if (f.empty()) return FactoredForm::constant(false);
  if (f.size() == 1) return cube_to_form(f.cubes()[0]);

  // Pull out the common cube first: f = C * (f / C).
  const Cube common = common_cube(f);
  if (!common.is_one()) {
    Cover rest(f.num_vars());
    for (const auto& c : f.cubes()) {
      Cube r = c;
      r.care &= ~common.care;
      r.val &= ~common.care;
      rest.add(r);
    }
    return make_and(cube_to_form(common), factor_rec(rest));
  }

  // Divide by the best kernel (most literal savings).
  const auto kernels = all_kernels(f);
  const Kernel* best = nullptr;
  int best_savings = 0;
  for (const auto& k : kernels) {
    if (k.kernel.size() < 2) continue;
    const Division d = algebraic_division(f, k.kernel);
    if (d.quotient.empty()) continue;
    const int product_cubes =
        static_cast<int>(d.quotient.size() * k.kernel.size());
    const int covered_literals =
        f.num_literals() - d.remainder.num_literals();
    const int factored_cost =
        d.quotient.num_literals() + k.kernel.num_literals();
    const int savings = covered_literals - factored_cost;
    (void)product_cubes;
    if (savings > best_savings) {
      best_savings = savings;
      best = &k;
    }
  }
  if (!best) {
    // No helpful kernel: plain OR of cube forms.
    auto node = FactoredForm::constant(false);
    for (const auto& c : f.cubes())
      node = make_or(std::move(node), cube_to_form(c));
    return node;
  }

  const Division d = algebraic_division(f, best->kernel);
  auto product = make_and(factor_rec(d.quotient), factor_rec(best->kernel));
  if (d.remainder.empty()) return product;
  return make_or(std::move(product), factor_rec(d.remainder));
}

}  // namespace

std::unique_ptr<FactoredForm> quick_factor(const Cover& f) {
  return factor_rec(f);
}

}  // namespace sitm

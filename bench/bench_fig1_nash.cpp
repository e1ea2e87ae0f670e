// Figure 1 + Sec. 2.2/2.3 + Appendix: the BitTorrent Dilemma payoff
// matrices, the analytical expected-game-wins model (Table 1 notation), and
// the Nash-equilibrium invasion analysis (BT is not a NE; Birds is).
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "gametheory/expected_wins.hpp"
#include "gametheory/payoff.hpp"
#include "util/table_printer.hpp"

using namespace dsa;
using namespace dsa::gametheory;

namespace {

void print_game(const std::string& title, const BimatrixGame& game) {
  std::printf("\n%s (fast payoff, slow payoff):\n", title.c_str());
  util::TablePrinter table({"fast \\ slow", "cooperate", "defect"});
  auto cell = [&](Action fa, Action sa) {
    std::string text = "(";
    text += util::fixed(game.payoff(Role::kFast, fa, sa), 0);
    text += ", ";
    text += util::fixed(game.payoff(Role::kSlow, fa, sa), 0);
    text += ')';
    return text;
  };
  table.add_row({"cooperate", cell(Action::kCooperate, Action::kCooperate),
                 cell(Action::kCooperate, Action::kDefect)});
  table.add_row({"defect", cell(Action::kDefect, Action::kCooperate),
                 cell(Action::kDefect, Action::kDefect)});
  table.print(std::cout);
}

void print_wins(const std::string& name, const ExpectedWins& w) {
  std::printf(
      "%-28s Er[A]=%.3f Er[B]=%.3f Er[C]=%.3f E[A]=%.3f E[B]=%.3f E[C]=%.3f "
      "total=%.3f\n",
      name.c_str(), w.reciprocated_above, w.reciprocated_below,
      w.reciprocated_same, w.free_above, w.free_below, w.free_same,
      w.total());
}

}  // namespace

int main() {
  ::dsa::bench::MetricsScope metrics_scope("fig1_nash");
  bench::banner(
      "Fig. 1 / Secs. 2.2-2.3 / Appendix — BitTorrent Dilemma & Nash analysis",
      "fast peers defect on slow peers; BitTorrent's TFT is NOT a Nash "
      "equilibrium, the Birds modification IS");

  const double f = 100.0, s = 20.0;
  const auto bt_game = bittorrent_dilemma(f, s);
  const auto birds_game = birds_payoffs(f, s);
  std::printf("\nSpeeds: f = %.0f KBps (fast), s = %.0f KBps (slow)\n", f, s);
  print_game("Fig. 1(a) — BitTorrent Dilemma", bt_game);
  std::printf("  dominant actions: fast=%s slow=%s\n",
              bt_game.dominant_action(Role::kFast) == Action::kDefect
                  ? "Defect"
                  : "Cooperate",
              bt_game.dominant_action(Role::kSlow) == Action::kDefect
                  ? "Defect"
                  : "Cooperate");
  print_game("Fig. 1(c) — Birds payoffs", birds_game);
  std::printf("  dominant actions: fast=%s slow=%s\n",
              birds_game.dominant_action(Role::kFast) == Action::kDefect
                  ? "Defect"
                  : "Cooperate",
              birds_game.dominant_action(Role::kSlow) == Action::kDefect
                  ? "Defect"
                  : "Cooperate");

  // Sec. 2.2: expected game wins for a range of class setups.
  std::printf("\nExpected game wins for peer c (Table 1 model):\n");
  bool bt_never_ne = true;
  bool birds_always_ne = true;
  for (const ClassSetup setup :
       {ClassSetup{10, 10, 10, 4}, ClassSetup{20, 5, 10, 4},
        ClassSetup{30, 30, 30, 9}, ClassSetup{8, 2, 7, 3}}) {
    std::printf("\n  NA=%zu NB=%zu NC=%zu Ur=%zu (Nr=%.0f)\n",
                setup.peers_above, setup.peers_below, setup.peers_same,
                setup.regular_slots, setup.contention_pool());
    print_wins("    BitTorrent (homogeneous)", bittorrent_expected_wins(setup));
    print_wins("    Birds (homogeneous)", birds_expected_wins(setup));

    const auto birds_in_bt = birds_invades_bittorrent(setup);
    const auto bt_in_birds = bittorrent_invades_birds(setup);
    print_wins("    Birds invader in BT swarm", birds_in_bt.invader);
    print_wins("    BT incumbent (same class)", birds_in_bt.incumbent);
    print_wins("    BT invader in Birds swarm", bt_in_birds.invader);
    print_wins("    Birds incumbent (same cls)", bt_in_birds.incumbent);
    std::printf("    -> Birds invader gains: %s | BT invader gains: %s\n",
                birds_in_bt.invader_outperforms ? "YES (BT not a NE)" : "no",
                bt_in_birds.invader_outperforms ? "YES" : "no (Birds is a NE)");
    bt_never_ne &= birds_in_bt.invader_outperforms;
    birds_always_ne &= !bt_in_birds.invader_outperforms;
  }

  std::printf("\n");
  bench::verdict(bt_never_ne && birds_always_ne,
                 "across all tested class setups a lone Birds deviator beats "
                 "BitTorrent incumbents while a lone BitTorrent deviator "
                 "cannot beat Birds incumbents");
  return 0;
}

// E-commerce scenario: a shop requires trusted-path confirmation for
// checkout, exactly the deployment the paper's introduction motivates.
//
// Shows: a multi-item purchase confirmed by the customer; a price-
// manipulation attempt by browser malware that the customer catches on
// the trusted screen; and the shop's audit log distinguishing the two.
#include <cstdio>
#include <vector>

#include "pal/human_agent.h"
#include "sp/fleet.h"

using namespace tp;

namespace {

struct CartItem {
  const char* name;
  int cents;
};

std::string cart_summary(const std::vector<CartItem>& cart) {
  int total = 0;
  for (const auto& item : cart) total += item.cents;
  char buf[128];
  std::snprintf(buf, sizeof buf, "order: %zu items, total %d.%02d EUR",
                cart.size(), total / 100, total % 100);
  return buf;
}

}  // namespace

int main() {
  sp::FleetConfig config;
  config.client_id = "customer-17";
  config.seed = bytes_of("ecommerce");
  sp::Fleet shop(config);

  devices::HumanParams careful;
  careful.attention = 1.0;  // this customer reads the trusted screen
  pal::HumanAgent customer(devices::HumanModel(careful, SimRng(42)), "");
  shop.client().set_user_agent(&customer);

  if (!shop.client().enroll().ok()) {
    std::fprintf(stderr, "enrollment failed\n");
    return 1;
  }
  std::printf("customer enrolled with shop\n\n");

  // --- Purchase 1: the benign checkout. ---------------------------------
  const std::vector<CartItem> cart = {
      {"mechanical keyboard", 8900}, {"usb hub", 2450}, {"cable", 799}};
  const std::string summary = cart_summary(cart);
  customer.set_intended_summary(summary);  // what the customer expects

  auto purchase =
      shop.client().submit_transaction(summary, bytes_of("cart-payload-1"));
  std::printf("checkout 1 (%s):\n  -> %s: %s\n", summary.c_str(),
              purchase.value().accepted ? "ACCEPTED" : "REJECTED",
              purchase.value().reason.c_str());

  // --- Purchase 2: browser malware rewrites the order. ------------------
  // The customer thinks they are buying the same cart; compromised client
  // software submits an inflated order. The TRUSTED screen shows the real
  // submission, so the customer rejects it.
  const std::string forged = "order: 1 item, total 2899.99 EUR";
  // (intended summary stays what the customer believes they are buying)
  auto attacked =
      shop.client().submit_transaction(forged, bytes_of("cart-payload-2"));
  std::printf("\ncheckout 2 (malware-rewritten to \"%s\"):\n  -> %s: %s\n",
              forged.c_str(),
              attacked.value().accepted ? "ACCEPTED" : "REJECTED",
              attacked.value().reason.c_str());

  // --- The shop's view. ---------------------------------------------------
  const auto stats = shop.sp().stats();
  std::printf("\nshop audit log: %llu accepted, %llu rejected\n",
              static_cast<unsigned long long>(stats.tx_accepted),
              static_cast<unsigned long long>(stats.tx_rejected));
  for (std::size_t i = 0; i < proto::kRejectCodeCount; ++i) {
    if (stats.rejects_by_code[i] == 0) continue;
    const auto code = static_cast<proto::RejectCode>(i);
    std::printf("  reject %-24s %-40s x%llu\n", proto::reject_code_name(code),
                proto::reject_code_message(code),
                static_cast<unsigned long long>(stats.rejects_by_code[i]));
  }

  return stats.tx_accepted == 1 && stats.tx_rejected == 1 ? 0 : 1;
}

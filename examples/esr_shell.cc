// An interactive shell for the epsilon-serializable database: type
// transactions in the paper's script language and run them against a live
// engine. Useful for poking at bounds interactively.
//
//   $ ./build/examples/esr_shell
//   esr> BEGIN Query TIL 1000
//   ...> t1 = Read 5
//   ...> output("value: ", t1)
//   ...> COMMIT
//   txn committed (retries=0, inconsistency=0)
//   output: value: 4830
//
// Meta commands: \help \peek <id> \group <name> <parent> \assign <id>
// <group> \schema \metrics \quit

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "api/database.h"
#include "lang/interpreter.h"
#include "lang/parser.h"

namespace {

void PrintHelp() {
  std::printf(
      "Transactions: type the paper's script language, ending with "
      "COMMIT or END, e.g.\n"
      "  BEGIN Query TIL 1000\n"
      "  LIMIT company 400\n"
      "  t1 = Read 5\n"
      "  output(\"value: \", t1)\n"
      "  COMMIT\n"
      "Meta commands:\n"
      "  \\peek <id>              print an object's committed value\n"
      "  \\group <name> <parent>  add a group (parent by name; root = "
      "overall)\n"
      "  \\assign <id> <group>    put an object under a group\n"
      "  \\schema                 list groups\n"
      "  \\metrics                dump server counters\n"
      "  \\help  \\quit\n");
}

bool HandleMeta(const std::string& line, esr::Database* db) {
  std::istringstream in(line);
  std::string command;
  in >> command;
  if (command == "\\help") {
    PrintHelp();
  } else if (command == "\\peek") {
    esr::ObjectId id = 0;
    if (!(in >> id)) {
      std::printf("usage: \\peek <object id>\n");
      return true;
    }
    const auto value = db->PeekValue(id);
    if (value.ok()) {
      std::printf("object %u = %lld\n", id,
                  static_cast<long long>(*value));
    } else {
      std::printf("%s\n", value.status().ToString().c_str());
    }
  } else if (command == "\\group") {
    std::string name, parent;
    if (!(in >> name >> parent)) {
      std::printf("usage: \\group <name> <parent-name>\n");
      return true;
    }
    const auto parent_id = db->schema().FindGroup(parent);
    if (!parent_id.ok()) {
      std::printf("%s\n", parent_id.status().ToString().c_str());
      return true;
    }
    const auto id = db->schema().AddGroup(name, *parent_id);
    if (id.ok()) {
      std::printf("group '%s' added under '%s'\n", name.c_str(),
                  parent.c_str());
    } else {
      std::printf("%s\n", id.status().ToString().c_str());
    }
  } else if (command == "\\assign") {
    esr::ObjectId id = 0;
    std::string group;
    if (!(in >> id >> group)) {
      std::printf("usage: \\assign <object id> <group-name>\n");
      return true;
    }
    // The schema's object map is dense in ObjectId: refuse ids outside
    // the database rather than grow it to reach them.
    const auto present = db->PeekValue(id);
    if (!present.ok()) {
      std::printf("%s\n", present.status().ToString().c_str());
      return true;
    }
    const auto group_id = db->schema().FindGroup(group);
    if (!group_id.ok()) {
      std::printf("%s\n", group_id.status().ToString().c_str());
      return true;
    }
    const esr::Status status = db->schema().AssignObject(id, *group_id);
    std::printf("%s\n", status.ToString().c_str());
  } else if (command == "\\schema") {
    const esr::GroupSchema& schema = db->schema();
    for (esr::GroupId g = 0; g < schema.num_groups(); ++g) {
      std::printf("  [%u] %s (parent %s, weight %.1f)\n", g,
                  schema.name(g).c_str(),
                  schema.name(schema.parent(g)).c_str(), schema.weight(g));
    }
  } else if (command == "\\metrics") {
    for (const auto& [name, value] : db->metrics().CounterSnapshot()) {
      std::printf("  %-28s %lld\n", name.c_str(),
                  static_cast<long long>(value));
    }
  } else if (command == "\\quit" || command == "\\q") {
    return false;
  } else {
    std::printf("unknown command %s (try \\help)\n", command.c_str());
  }
  return true;
}

}  // namespace

int main() {
  esr::ServerOptions options;
  options.store.num_objects = 1000;
  esr::Database db(options);
  esr::Session session = db.CreateSession(1);

  std::printf("esrdb shell — 1000 objects, values 1000..9999. \\help for "
              "help.\n");

  std::string buffer;
  std::string line;
  bool in_txn = false;
  while (true) {
    std::printf("%s", in_txn ? "...> " : "esr> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    // Trim leading whitespace.
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    const std::string trimmed = line.substr(start);

    if (!in_txn && trimmed[0] == '\\') {
      if (!HandleMeta(trimmed, &db)) break;
      continue;
    }
    buffer += trimmed + "\n";
    in_txn = true;
    // A transaction ends with COMMIT or END on its own line.
    std::string word;
    std::istringstream first(trimmed);
    first >> word;
    if (word != "COMMIT" && word != "END") continue;

    const auto txns = esr::lang::ParseScript(buffer);
    buffer.clear();
    in_txn = false;
    if (!txns.ok()) {
      std::printf("parse error: %s\n", txns.status().ToString().c_str());
      continue;
    }
    const auto outcomes =
        esr::lang::ExecuteScript(&session, db.schema(), *txns);
    if (!outcomes.ok()) {
      std::printf("error: %s\n", outcomes.status().ToString().c_str());
      continue;
    }
    for (const auto& outcome : *outcomes) {
      std::printf("txn committed (retries=%d, inconsistency=%.0f)\n",
                  outcome.retries, outcome.inconsistency);
      for (const std::string& output : outcome.outputs) {
        std::printf("output: %s\n", output.c_str());
      }
    }
  }
  std::printf("\nbye\n");
  return 0;
}

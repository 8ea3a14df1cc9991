#include "circuit/qasm.hpp"

#include <cctype>
#include <cmath>
#include <numbers>
#include <optional>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace dqcsim {
namespace {

std::string format_angle(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

[[noreturn]] void parse_error(int line, const std::string& message) {
  throw ConfigError("QASM parse error at line " + std::to_string(line) +
                    ": " + message);
}

/// Strip comments and surrounding whitespace.
std::string clean_line(std::string line) {
  const auto comment = line.find("//");
  if (comment != std::string::npos) line.erase(comment);
  const auto begin = line.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = line.find_last_not_of(" \t\r\n");
  return line.substr(begin, end - begin + 1);
}

/// Parse "q[3]" -> 3 for register name "q" of `num_qubits` qubits. The
/// index must be a plain decimal inside the register.
QubitId parse_operand(const std::string& token, const std::string& qreg,
                      int num_qubits, int line) {
  const std::string prefix = qreg + "[";
  if (token.rfind(prefix, 0) != 0 || token.back() != ']') {
    parse_error(line, "bad operand '" + token + "'");
  }
  const std::string index =
      token.substr(prefix.size(), token.size() - prefix.size() - 1);
  long q = -1;
  std::size_t used = 0;
  try {
    q = std::stol(index, &used);
  } catch (const std::exception&) {
    parse_error(line, "bad qubit index in '" + token + "'");
  }
  if (used != index.size()) {
    parse_error(line, "bad qubit index in '" + token + "'");
  }
  if (q < 0 || q >= num_qubits) {
    parse_error(line, "qubit index in '" + token + "' outside register " +
                          qreg + "[" + std::to_string(num_qubits) + "]");
  }
  return static_cast<QubitId>(q);
}

/// Evaluate the angle expressions emitted by to_qasm and common Qiskit
/// output: a decimal literal, optionally "pi", "-pi", "pi/N", "N*pi/M".
double parse_angle(const std::string& expr, int line) {
  std::string s;
  for (char c : expr) {
    if (!std::isspace(static_cast<unsigned char>(c))) s += c;
  }
  if (s.empty()) parse_error(line, "empty angle");
  double sign = 1.0;
  if (s[0] == '-') {
    sign = -1.0;
    s.erase(0, 1);
  }
  const auto pi_pos = s.find("pi");
  if (pi_pos == std::string::npos) {
    try {
      return sign * std::stod(s);
    } catch (const std::exception&) {
      parse_error(line, "bad angle '" + expr + "'");
    }
  }
  // forms: pi, pi/D, N*pi, N*pi/D
  double numerator = 1.0;
  double denominator = 1.0;
  const std::string before = s.substr(0, pi_pos);
  const std::string after = s.substr(pi_pos + 2);
  try {
    if (!before.empty()) {
      if (before.back() != '*') parse_error(line, "bad angle '" + expr + "'");
      numerator = std::stod(before.substr(0, before.size() - 1));
    }
    if (!after.empty()) {
      if (after.front() != '/') parse_error(line, "bad angle '" + expr + "'");
      denominator = std::stod(after.substr(1));
    }
  } catch (const ConfigError&) {
    throw;
  } catch (const std::exception&) {
    parse_error(line, "bad angle '" + expr + "'");
  }
  return sign * numerator * std::numbers::pi / denominator;
}

std::optional<GateKind> kind_from_name(const std::string& name) {
  if (name == "h") return GateKind::H;
  if (name == "x") return GateKind::X;
  if (name == "y") return GateKind::Y;
  if (name == "z") return GateKind::Z;
  if (name == "s") return GateKind::S;
  if (name == "sdg") return GateKind::Sdg;
  if (name == "t") return GateKind::T;
  if (name == "tdg") return GateKind::Tdg;
  if (name == "rx") return GateKind::RX;
  if (name == "ry") return GateKind::RY;
  if (name == "rz") return GateKind::RZ;
  if (name == "cx") return GateKind::CX;
  if (name == "cz") return GateKind::CZ;
  if (name == "cp") return GateKind::CP;
  if (name == "rzz") return GateKind::RZZ;
  if (name == "swap") return GateKind::SWAP;
  return std::nullopt;
}

}  // namespace

std::string to_qasm(const Circuit& qc) {
  std::ostringstream os;
  write_qasm(qc, os);
  return os.str();
}

void write_qasm(const Circuit& qc, std::ostream& os) {
  os << "OPENQASM 2.0;\n";
  os << "include \"qelib1.inc\";\n";
  if (!qc.name().empty()) os << "// circuit: " << qc.name() << "\n";
  os << "qreg q[" << qc.num_qubits() << "];\n";
  const std::size_t measures = qc.count_measure();
  if (measures > 0) os << "creg c[" << qc.num_qubits() << "];\n";
  for (const Gate& g : qc.gates()) {
    if (g.kind == GateKind::Measure) {
      os << "measure q[" << g.q0() << "] -> c[" << g.q0() << "];\n";
      continue;
    }
    os << gate_name(g.kind);
    if (has_param(g.kind)) os << '(' << format_angle(g.param) << ')';
    os << " q[" << g.q0() << ']';
    if (g.arity() == 2) os << ", q[" << g.q1() << ']';
    os << ";\n";
  }
}

Circuit from_qasm(const std::string& text) {
  std::istringstream is(text);
  return read_qasm(is);
}

Circuit read_qasm(std::istream& is) {
  Circuit qc(0);
  std::string qreg_name;
  int num_qubits = 0;
  bool have_qreg = false;
  std::string name;

  std::string raw;
  int line_no = 0;
  while (std::getline(is, raw)) {
    ++line_no;
    // Preserve the circuit-name comment before stripping comments.
    const auto name_tag = raw.find("// circuit: ");
    if (name_tag != std::string::npos) {
      name = clean_line(raw.substr(name_tag + 12));
    }
    std::string line = clean_line(raw);
    if (line.empty()) continue;
    // Statements may share a line; split on ';'.
    std::istringstream stmts(line);
    std::string stmt;
    while (std::getline(stmts, stmt, ';')) {
      stmt = clean_line(stmt);
      if (stmt.empty()) continue;
      if (stmt.rfind("OPENQASM", 0) == 0) continue;
      if (stmt.rfind("include", 0) == 0) continue;
      if (stmt.rfind("creg", 0) == 0) continue;
      if (stmt.rfind("barrier", 0) == 0) continue;
      if (stmt.rfind("qreg", 0) == 0) {
        if (have_qreg) parse_error(line_no, "multiple qreg declarations");
        const auto bracket = stmt.find('[');
        const auto close = stmt.find(']');
        if (bracket == std::string::npos || close == std::string::npos) {
          parse_error(line_no, "malformed qreg");
        }
        qreg_name = clean_line(stmt.substr(4, bracket - 4));
        try {
          num_qubits =
              std::stoi(stmt.substr(bracket + 1, close - bracket - 1));
        } catch (const std::exception&) {
          parse_error(line_no, "bad qreg size");
        }
        if (num_qubits < 0) parse_error(line_no, "bad qreg size");
        qc = Circuit(num_qubits, name);
        have_qreg = true;
        continue;
      }
      if (!have_qreg) parse_error(line_no, "gate before qreg");

      if (stmt.rfind("measure", 0) == 0) {
        const auto arrow = stmt.find("->");
        if (arrow == std::string::npos) parse_error(line_no, "bad measure");
        const QubitId q =
            parse_operand(clean_line(stmt.substr(7, arrow - 7)), qreg_name,
                          num_qubits, line_no);
        qc.measure(q);
        continue;
      }

      // gate-name [ '(' angle ')' ] operand [, operand]
      std::size_t pos = 0;
      while (pos < stmt.size() &&
             (std::isalnum(static_cast<unsigned char>(stmt[pos])) != 0)) {
        ++pos;
      }
      const std::string gate = stmt.substr(0, pos);
      const auto kind = kind_from_name(gate);
      if (!kind) parse_error(line_no, "unsupported gate '" + gate + "'");

      double angle = 0.0;
      if (pos < stmt.size() && stmt[pos] == '(') {
        const auto close = stmt.find(')', pos);
        if (close == std::string::npos) parse_error(line_no, "missing ')'");
        const std::string expr = stmt.substr(pos + 1, close - pos - 1);
        angle = parse_angle(expr, line_no);
        // "nan", "inf" and "pi/0" parse as numbers but name no rotation.
        if (!std::isfinite(angle)) {
          parse_error(line_no, "angle '" + expr + "' is not finite");
        }
        pos = close + 1;
      } else if (has_param(*kind)) {
        parse_error(line_no, "gate '" + gate + "' needs an angle");
      }

      // Split remaining operands on ','.
      std::vector<QubitId> operands;
      std::istringstream rest(stmt.substr(pos));
      std::string token;
      while (std::getline(rest, token, ',')) {
        token = clean_line(token);
        if (token.empty()) continue;
        operands.push_back(
            parse_operand(token, qreg_name, num_qubits, line_no));
      }
      if (static_cast<int>(operands.size()) != gate_arity(*kind)) {
        parse_error(line_no, "wrong operand count for '" + gate + "'");
      }
      if (operands.size() == 2 && operands[0] == operands[1]) {
        parse_error(line_no, "duplicate operand for '" + gate + "'");
      }
      if (operands.size() == 1) {
        qc.append(make_gate(*kind, operands[0], angle));
      } else {
        qc.append(make_gate(*kind, operands[0], operands[1], angle));
      }
    }
  }
  if (!have_qreg) throw ConfigError("QASM parse error: no qreg declared");
  return qc;
}

}  // namespace dqcsim

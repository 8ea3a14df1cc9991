/// Unit tests for OpenQASM 2.0 export/import round-tripping.

#include <gtest/gtest.h>

#include <cctype>
#include <numbers>
#include <string>

#include "circuit/qasm.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "gen/benchmarks.hpp"
#include "gen/qaoa.hpp"
#include "gen/qft.hpp"

namespace dqcsim {
namespace {

TEST(QasmExport, HeaderAndRegister) {
  Circuit qc(3, "demo");
  qc.h(0);
  const std::string qasm = to_qasm(qc);
  EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
  EXPECT_NE(qasm.find("include \"qelib1.inc\";"), std::string::npos);
  EXPECT_NE(qasm.find("qreg q[3];"), std::string::npos);
  EXPECT_NE(qasm.find("// circuit: demo"), std::string::npos);
  EXPECT_NE(qasm.find("h q[0];"), std::string::npos);
  EXPECT_EQ(qasm.find("creg"), std::string::npos);  // no measurements
}

TEST(QasmExport, TwoQubitAndParamGates) {
  Circuit qc(4);
  qc.cx(0, 1);
  qc.rzz(1, 2, 0.5);
  qc.cp(2, 3, 0.25);
  const std::string qasm = to_qasm(qc);
  EXPECT_NE(qasm.find("cx q[0], q[1];"), std::string::npos);
  EXPECT_NE(qasm.find("rzz(0.5) q[1], q[2];"), std::string::npos);
  EXPECT_NE(qasm.find("cp(0.25) q[2], q[3];"), std::string::npos);
}

TEST(QasmExport, MeasurementsEmitCreg) {
  Circuit qc(2);
  qc.h(0);
  qc.measure(0);
  const std::string qasm = to_qasm(qc);
  EXPECT_NE(qasm.find("creg c[2];"), std::string::npos);
  EXPECT_NE(qasm.find("measure q[0] -> c[0];"), std::string::npos);
}

TEST(QasmImport, ParsesMinimalProgram) {
  const Circuit qc = from_qasm(
      "OPENQASM 2.0;\n"
      "include \"qelib1.inc\";\n"
      "qreg q[2];\n"
      "h q[0];\n"
      "cx q[0], q[1];\n");
  EXPECT_EQ(qc.num_qubits(), 2);
  ASSERT_EQ(qc.num_gates(), 2u);
  EXPECT_EQ(qc.gate(0).kind, GateKind::H);
  EXPECT_EQ(qc.gate(1).kind, GateKind::CX);
  EXPECT_EQ(qc.gate(1).q0(), 0);
  EXPECT_EQ(qc.gate(1).q1(), 1);
}

TEST(QasmImport, ParsesPiExpressions) {
  const Circuit qc = from_qasm(
      "qreg q[1];\n"
      "rz(pi) q[0];\n"
      "rx(pi/2) q[0];\n"
      "ry(-pi/4) q[0];\n"
      "rz(3*pi/2) q[0];\n"
      "rx(0.5) q[0];\n");
  EXPECT_NEAR(qc.gate(0).param, std::numbers::pi, 1e-12);
  EXPECT_NEAR(qc.gate(1).param, std::numbers::pi / 2, 1e-12);
  EXPECT_NEAR(qc.gate(2).param, -std::numbers::pi / 4, 1e-12);
  EXPECT_NEAR(qc.gate(3).param, 3 * std::numbers::pi / 2, 1e-12);
  EXPECT_NEAR(qc.gate(4).param, 0.5, 1e-12);
}

TEST(QasmImport, SkipsCommentsAndBarriers) {
  const Circuit qc = from_qasm(
      "// a leading comment\n"
      "qreg q[2];\n"
      "h q[0]; // trailing comment\n"
      "barrier q;\n"
      "x q[1];\n");
  EXPECT_EQ(qc.num_gates(), 2u);
}

TEST(QasmImport, ErrorsCarryLineNumbers) {
  try {
    from_qasm("qreg q[2];\nfoo q[0];\n");
    FAIL() << "should have thrown";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(QasmImport, RejectsMalformedPrograms) {
  EXPECT_THROW(from_qasm("h q[0];\n"), ConfigError);           // gate first
  EXPECT_THROW(from_qasm(""), ConfigError);                    // no qreg
  EXPECT_THROW(from_qasm("qreg q[2];\ncx q[0];\n"), ConfigError);
  EXPECT_THROW(from_qasm("qreg q[2];\nrz q[0];\n"), ConfigError);
  EXPECT_THROW(from_qasm("qreg q[2];\nh q[5];\n"), ConfigError);
  EXPECT_THROW(from_qasm("qreg q[2];\nqreg r[2];\n"), ConfigError);
}

/// The ConfigError message of parsing `text`, or "" when it parses.
std::string parse_failure(const std::string& text) {
  try {
    from_qasm(text);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(QasmImport, RejectsNonFiniteAngles) {
  for (const char* angle :
       {"nan", "-nan", "inf", "-inf", "infinity", "pi/0", "2*pi/0"}) {
    SCOPED_TRACE(angle);
    const std::string err = parse_failure(
        std::string("qreg q[2];\nh q[0];\nrz(") + angle + ") q[1];\n");
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;
    EXPECT_NE(err.find("not finite"), std::string::npos) << err;
  }
  EXPECT_NE(parse_failure("qreg q[1];\nrx(inf) q[0];\n"), "");
}

TEST(QasmImport, RejectsOperandsOutsideTheRegister) {
  for (const char* stmt : {"h q[-1];", "cx q[0], q[5];", "cx q[2], q[0];",
                           "measure q[-3] -> c[0];", "x q[1x];"}) {
    SCOPED_TRACE(stmt);
    const std::string err =
        parse_failure(std::string("qreg q[2];\nh q[0];\n") + stmt + "\n");
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  }
  EXPECT_NE(parse_failure("qreg q[-2];\n"), "");
}

TEST(QasmImport, RejectsDuplicateOperands) {
  const std::string err = parse_failure("qreg q[2];\ncx q[1], q[1];\n");
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("duplicate operand"), std::string::npos) << err;
}

void expect_round_trip(const Circuit& original) {
  const Circuit back = from_qasm(to_qasm(original));
  ASSERT_EQ(back.num_qubits(), original.num_qubits());
  ASSERT_EQ(back.num_gates(), original.num_gates());
  EXPECT_EQ(back.name(), original.name());
  for (std::size_t i = 0; i < original.num_gates(); ++i) {
    EXPECT_EQ(back.gate(i).kind, original.gate(i).kind) << "gate " << i;
    EXPECT_EQ(back.gate(i).qubits, original.gate(i).qubits) << "gate " << i;
    EXPECT_DOUBLE_EQ(back.gate(i).param, original.gate(i).param)
        << "gate " << i;
  }
}

TEST(QasmRoundTrip, AllGateKinds) {
  Circuit qc(4, "kinds");
  qc.h(0);
  qc.x(1);
  qc.y(2);
  qc.z(3);
  qc.s(0);
  qc.sdg(1);
  qc.t(2);
  qc.tdg(3);
  qc.rx(0, 0.123456789012345);
  qc.ry(1, -2.5);
  qc.rz(2, 1e-9);
  qc.cx(0, 1);
  qc.cz(1, 2);
  qc.cp(2, 3, 0.75);
  qc.rzz(3, 0, -0.25);
  qc.swap(1, 3);
  qc.measure(2);
  expect_round_trip(qc);
}

TEST(QasmRoundTrip, Qft32IsExact) {
  expect_round_trip(gen::make_qft(32));
}

TEST(QasmRoundTrip, QaoaBenchmark) {
  expect_round_trip(gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32));
}

TEST(QasmRoundTrip, TlimBenchmark) {
  expect_round_trip(gen::make_benchmark(gen::BenchmarkId::TLIM_32));
}

// Property tests over the full benchmark suite: parse(emit(qc)) preserves
// the gate list exactly, and emit reaches a fixed point after one cycle.
class QasmBenchmarkRoundTrip
    : public ::testing::TestWithParam<gen::BenchmarkId> {};

TEST_P(QasmBenchmarkRoundTrip, ParseEmitParseIsIdentity) {
  const Circuit original = gen::make_benchmark(GetParam());
  expect_round_trip(original);

  // Second cycle: the emitted text itself must be a fixed point, so any
  // external tool that re-serializes sees a byte-identical program.
  const std::string once = to_qasm(original);
  const std::string twice = to_qasm(from_qasm(once));
  EXPECT_EQ(once, twice);
}

TEST_P(QasmBenchmarkRoundTrip, ParsedCircuitKeepsStructure) {
  const Circuit original = gen::make_benchmark(GetParam());
  const Circuit back = from_qasm(to_qasm(original));
  EXPECT_EQ(back.num_qubits(), gen::benchmark_qubits(GetParam()));
  EXPECT_EQ(back.unit_depth(), original.unit_depth());
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, QasmBenchmarkRoundTrip,
    ::testing::ValuesIn(gen::all_benchmarks()),
    [](const ::testing::TestParamInfo<gen::BenchmarkId>& tp) {
      std::string name = gen::benchmark_name(tp.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace dqcsim

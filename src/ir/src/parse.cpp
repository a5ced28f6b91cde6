#include "colop/ir/parse.h"

#include <cctype>
#include <charconv>
#include <system_error>

#include "colop/support/error.h"

namespace colop::ir {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Program parse() {
    Program prog;
    skip_ws();
    COLOP_REQUIRE(!eof(), "parse: empty program");
    for (;;) {
      parse_stage(prog);
      skip_ws();
      if (eof()) break;
      expect(';');
    }
    return prog;
  }

 private:
  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return eof() ? '\0' : text_[pos_]; }

  void skip_ws() {
    while (!eof() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw_error("parse error at position " + std::to_string(pos_) + ": " + msg);
  }

  void expect(char c) {
    skip_ws();
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool accept(char c) {
    skip_ws();
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  std::string ident() {
    skip_ws();
    std::size_t start = pos_;
    while (!eof() && (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                      text_[pos_] == '_'))
      ++pos_;
    if (start == pos_) fail("expected identifier");
    return text_.substr(start, pos_ - start);
  }

  // Operator names may contain symbols: +, *, +mod97, f+, ...
  std::string op_name() {
    skip_ws();
    std::size_t start = pos_;
    while (!eof() && text_[pos_] != ')' && text_[pos_] != ',' &&
           !std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    if (start == pos_) fail("expected operator name");
    return text_.substr(start, pos_ - start);
  }

  int integer() {
    skip_ws();
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (!eof() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    int value = 0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec == std::errc::result_out_of_range)
      fail("integer out of range: " + text_.substr(start, pos_ - start));
    if (ec != std::errc{} || end != last) fail("expected integer");
    return value;
  }

  int optional_root() {
    if (!accept(',')) return 0;
    const std::string key = ident();
    if (key != "root") fail("expected 'root'");
    expect('=');
    return integer();
  }

  // Parse a `,key=value` tail of root=/h= pairs (istart stages).  Entries
  // already consumed by the caller keep their defaults.
  void optional_root_handle(int& root, int& handle, bool allow_root) {
    while (accept(',')) {
      const std::string key = ident();
      expect('=');
      if (key == "root" && allow_root) {
        root = integer();
      } else if (key == "h") {
        handle = integer();
      } else {
        fail("expected '" + std::string(allow_root ? "root' or 'h" : "h") + "'");
      }
    }
  }

  void parse_stage(Program& prog) {
    const std::string kw = ident();
    if (kw == "map") {
      expect('(');
      const std::string fname = ident();
      expect(')');
      if (fname == "pair") {
        prog.map(fn_pair());
      } else if (fname == "triple") {
        prog.map(fn_triple());
      } else if (fname == "quadruple") {
        prog.map(fn_quadruple());
      } else if (fname == "pi1") {
        prog.map(fn_proj1());
      } else if (fname == "id") {
        prog.map(fn_id());
      } else {
        fail("unknown map function '" + fname +
             "' (textual programs support pair/triple/quadruple/pi1/id)");
      }
    } else if (kw == "scan") {
      expect('(');
      prog.scan(parse_op(op_name()));
      expect(')');
    } else if (kw == "reduce") {
      expect('(');
      auto op = parse_op(op_name());
      const int root = optional_root();
      expect(')');
      prog.reduce(std::move(op), root);
    } else if (kw == "allreduce") {
      expect('(');
      prog.allreduce(parse_op(op_name()));
      expect(')');
    } else if (kw == "bcast") {
      int root = 0;
      if (accept('(')) {
        const std::string key = ident();
        if (key != "root") fail("expected 'root'");
        expect('=');
        root = integer();
        expect(')');
      }
      prog.bcast(root);
    } else if (kw == "istart_reduce") {
      expect('(');
      auto op = parse_op(op_name());
      int root = 0;
      int handle = 0;
      optional_root_handle(root, handle, /*allow_root=*/true);
      expect(')');
      prog.istart_reduce(std::move(op), root, 1, handle);
    } else if (kw == "istart_allreduce") {
      expect('(');
      auto op = parse_op(op_name());
      int root = 0;
      int handle = 0;
      optional_root_handle(root, handle, /*allow_root=*/false);
      expect(')');
      prog.istart_allreduce(std::move(op), 1, handle);
    } else if (kw == "istart_bcast") {
      int root = 0;
      int handle = 0;
      if (accept('(')) {
        // First entry has no leading comma: back up to share the kv parser.
        const std::string key = ident();
        expect('=');
        if (key == "root") {
          root = integer();
        } else if (key == "h") {
          handle = integer();
        } else {
          fail("expected 'root' or 'h'");
        }
        optional_root_handle(root, handle, /*allow_root=*/true);
        expect(')');
      }
      prog.istart_bcast(root, 1, handle);
    } else if (kw == "wait") {
      int handle = 0;
      if (accept('(')) {
        const std::string key = ident();
        if (key != "h") fail("expected 'h'");
        expect('=');
        handle = integer();
        expect(')');
      }
      prog.wait(handle);
    } else {
      fail("unknown stage '" + kw + "'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

BinOpPtr parse_op(const std::string& name) {
  if (name == "+") return op_add();
  if (name == "*") return op_mul();
  if (name == "max") return op_max();
  if (name == "min") return op_min();
  if (name == "band") return op_band();
  if (name == "bor") return op_bor();
  if (name == "gcd") return op_gcd();
  if (name == "f+") return op_fadd();
  if (name == "f*") return op_fmul();
  if (name == "mat2") return op_mat2();
  if (name == "first") return op_first();
  if (name.rfind("+mod", 0) == 0)
    return op_modadd(std::atoll(name.c_str() + 4));
  if (name.rfind("*mod", 0) == 0)
    return op_modmul(std::atoll(name.c_str() + 4));
  throw_error("unknown operator '" + name + "'");
}

Program parse_program(const std::string& text) { return Parser(text).parse(); }

}  // namespace colop::ir

#include "paql/token.h"

#include <cctype>
#include <cstdlib>
#include <unordered_map>

#include "common/str_util.h"
#include "paql/ast.h"

namespace paql::lang {

const char* TokenTypeName(TokenType type) {
  switch (type) {
    case TokenType::kIdentifier: return "identifier";
    case TokenType::kNumber: return "number";
    case TokenType::kString: return "string";
    case TokenType::kLParen: return "'('";
    case TokenType::kRParen: return "')'";
    case TokenType::kComma: return "','";
    case TokenType::kDot: return "'.'";
    case TokenType::kStar: return "'*'";
    case TokenType::kSemicolon: return "';'";
    case TokenType::kPlus: return "'+'";
    case TokenType::kMinus: return "'-'";
    case TokenType::kSlash: return "'/'";
    case TokenType::kEq: return "'='";
    case TokenType::kNe: return "'<>'";
    case TokenType::kLt: return "'<'";
    case TokenType::kLe: return "'<='";
    case TokenType::kGt: return "'>'";
    case TokenType::kGe: return "'>='";
    case TokenType::kSelect: return "SELECT";
    case TokenType::kPackage: return "PACKAGE";
    case TokenType::kAs: return "AS";
    case TokenType::kFrom: return "FROM";
    case TokenType::kRepeat: return "REPEAT";
    case TokenType::kWhere: return "WHERE";
    case TokenType::kSuchKw: return "SUCH";
    case TokenType::kThat: return "THAT";
    case TokenType::kMinimize: return "MINIMIZE";
    case TokenType::kMaximize: return "MAXIMIZE";
    case TokenType::kAnd: return "AND";
    case TokenType::kOr: return "OR";
    case TokenType::kNot: return "NOT";
    case TokenType::kBetween: return "BETWEEN";
    case TokenType::kIn: return "IN";
    case TokenType::kIs: return "IS";
    case TokenType::kNull: return "NULL";
    case TokenType::kCount: return "COUNT";
    case TokenType::kSum: return "SUM";
    case TokenType::kAvg: return "AVG";
    case TokenType::kMin: return "MIN";
    case TokenType::kMax: return "MAX";
    case TokenType::kEnd: return "end of input";
  }
  return "unknown";
}

std::string Token::Describe() const {
  if (type == TokenType::kIdentifier || type == TokenType::kNumber ||
      type == TokenType::kString) {
    return StrCat(TokenTypeName(type), " '", text, "'");
  }
  return TokenTypeName(type);
}

namespace {

const std::unordered_map<std::string, TokenType>& KeywordMap() {
  static const auto* kMap = new std::unordered_map<std::string, TokenType>{
      {"select", TokenType::kSelect},     {"package", TokenType::kPackage},
      {"as", TokenType::kAs},             {"from", TokenType::kFrom},
      {"repeat", TokenType::kRepeat},     {"where", TokenType::kWhere},
      {"such", TokenType::kSuchKw},       {"that", TokenType::kThat},
      {"minimize", TokenType::kMinimize}, {"maximize", TokenType::kMaximize},
      {"and", TokenType::kAnd},           {"or", TokenType::kOr},
      {"not", TokenType::kNot},           {"between", TokenType::kBetween},
      {"in", TokenType::kIn},             {"is", TokenType::kIs},
      {"null", TokenType::kNull},         {"count", TokenType::kCount},
      {"sum", TokenType::kSum},           {"avg", TokenType::kAvg},
      {"min", TokenType::kMin},           {"max", TokenType::kMax},
  };
  return *kMap;
}

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view text) {
  std::vector<Token> tokens;
  size_t line = 1, col = 1;
  size_t i = 0;
  auto make = [&](TokenType type, std::string t) {
    Token tok;
    tok.type = type;
    tok.text = std::move(t);
    tok.line = line;
    tok.column = col;
    return tok;
  };
  auto error = [&](const std::string& msg) {
    return Status::ParseError(StrCat("lex error at ", line, ":", col, ": ", msg));
  };
  // Open parentheses. The parser refuses nesting past kMaxExprDepth; failing
  // here already keeps a megabyte of '(' from becoming a million tokens.
  int open = 0;
  while (i < text.size()) {
    char c = text[i];
    if (c == '\n') {
      ++line;
      col = 1;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++col;
      ++i;
      continue;
    }
    // Line comment: -- ... \n
    if (c == '-' && i + 1 < text.size() && text[i + 1] == '-') {
      while (i < text.size() && text[i] != '\n') ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[i])) ||
              text[i] == '_')) {
        ++i;
      }
      std::string word(text.substr(start, i - start));
      auto it = KeywordMap().find(ToLower(word));
      Token tok = make(
          it == KeywordMap().end() ? TokenType::kIdentifier : it->second, word);
      tokens.push_back(std::move(tok));
      col += i - start;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
      size_t start = i;
      while (i < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[i])) ||
              text[i] == '.' || text[i] == 'e' || text[i] == 'E' ||
              ((text[i] == '+' || text[i] == '-') && i > start &&
               (text[i - 1] == 'e' || text[i - 1] == 'E')))) {
        ++i;
      }
      std::string num(text.substr(start, i - start));
      char* endp = nullptr;
      double value = std::strtod(num.c_str(), &endp);
      if (endp != num.c_str() + num.size()) {
        return error(StrCat("malformed number '", num, "'"));
      }
      Token tok = make(TokenType::kNumber, num);
      tok.number = value;
      tokens.push_back(std::move(tok));
      col += i - start;
      continue;
    }
    if (c == '\'') {
      size_t start = ++i;
      std::string value;
      bool closed = false;
      while (i < text.size()) {
        if (text[i] == '\'') {
          if (i + 1 < text.size() && text[i + 1] == '\'') {  // escaped quote
            value += '\'';
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        value += text[i++];
      }
      if (!closed) return error("unterminated string literal");
      tokens.push_back(make(TokenType::kString, value));
      col += i - start + 2;
      continue;
    }
    auto push1 = [&](TokenType type) {
      tokens.push_back(make(type, std::string(1, c)));
      ++i;
      ++col;
    };
    switch (c) {
      case '(':
        if (++open > kMaxExprDepth) {
          return error(StrCat("parentheses nest deeper than ", kMaxExprDepth,
                              " levels"));
        }
        push1(TokenType::kLParen);
        break;
      case ')':
        --open;
        push1(TokenType::kRParen);
        break;
      case ',': push1(TokenType::kComma); break;
      case '.': push1(TokenType::kDot); break;
      case '*': push1(TokenType::kStar); break;
      case ';': push1(TokenType::kSemicolon); break;
      case '+': push1(TokenType::kPlus); break;
      case '-': push1(TokenType::kMinus); break;
      case '/': push1(TokenType::kSlash); break;
      case '=': push1(TokenType::kEq); break;
      case '!':
        if (i + 1 < text.size() && text[i + 1] == '=') {
          tokens.push_back(make(TokenType::kNe, "!="));
          i += 2;
          col += 2;
        } else {
          return error("unexpected '!'");
        }
        break;
      case '<':
        if (i + 1 < text.size() && text[i + 1] == '=') {
          tokens.push_back(make(TokenType::kLe, "<="));
          i += 2;
          col += 2;
        } else if (i + 1 < text.size() && text[i + 1] == '>') {
          tokens.push_back(make(TokenType::kNe, "<>"));
          i += 2;
          col += 2;
        } else {
          push1(TokenType::kLt);
        }
        break;
      case '>':
        if (i + 1 < text.size() && text[i + 1] == '=') {
          tokens.push_back(make(TokenType::kGe, ">="));
          i += 2;
          col += 2;
        } else {
          push1(TokenType::kGt);
        }
        break;
      default:
        return error(StrCat("unexpected character '", std::string(1, c), "'"));
    }
  }
  Token end;
  end.type = TokenType::kEnd;
  end.line = line;
  end.column = col;
  tokens.push_back(end);
  return tokens;
}

}  // namespace paql::lang

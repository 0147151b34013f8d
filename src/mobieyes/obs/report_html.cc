#include "mobieyes/obs/report_html.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace mobieyes::obs {

namespace {

// ---------------------------------------------------------------------------
// JSON parsing

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::unique_ptr<JsonValue> Parse() {
    auto value = std::make_unique<JsonValue>();
    if (!ParseValue(value.get())) return nullptr;
    SkipSpace();
    if (pos_ != text_.size()) {
      error_ = "trailing characters at offset " + std::to_string(pos_);
      return nullptr;
    }
    return value;
  }

  const std::string& error() const { return error_; }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("short \\u escape");
            pos_ += 4;  // non-ASCII escapes don't appear in our exports
            out->push_back('?');
            break;
          }
          default: return Fail("bad escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return Fail("unterminated string");
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::Kind::kObject;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        std::string key;
        if (!ParseString(&key)) return false;
        if (!Consume(':')) return false;
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->object.emplace(std::move(key), std::move(value));
        SkipSpace();
        if (pos_ >= text_.size()) return Fail("unterminated object");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        return Consume('}');
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::Kind::kArray;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->array.push_back(std::move(value));
        SkipSpace();
        if (pos_ >= text_.size()) return Fail("unterminated array");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        return Consume(']');
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::Kind::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    size_t consumed = 0;
    try {
      out->number = std::stod(text_.substr(pos_), &consumed);
    } catch (...) {
      return Fail("bad value");
    }
    if (consumed == 0) return Fail("bad value");
    out->kind = JsonValue::Kind::kNumber;
    pos_ += consumed;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

// ---------------------------------------------------------------------------
// HTML rendering helpers

std::string HtmlEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string FormatNumber(double value) {
  char buffer[32];
  if (value == static_cast<double>(static_cast<int64_t>(value)) &&
      value >= -9.0e15 && value <= 9.0e15) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  }
  return buffer;
}

// An inline SVG polyline over `values`, scaled to fit; flat series render
// as a midline.
std::string Sparkline(const std::vector<double>& values) {
  constexpr double kWidth = 220.0;
  constexpr double kHeight = 36.0;
  if (values.empty()) return "<span class=\"empty\">(no samples)</span>";
  double lo = values[0];
  double hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double span = hi > lo ? hi - lo : 1.0;
  std::string points;
  for (size_t k = 0; k < values.size(); ++k) {
    const double x =
        values.size() > 1
            ? kWidth * static_cast<double>(k) /
                  static_cast<double>(values.size() - 1)
            : kWidth / 2.0;
    const double y = kHeight - 2.0 - (kHeight - 4.0) * (values[k] - lo) / span;
    char buffer[48];
    std::snprintf(buffer, sizeof(buffer), "%.1f,%.1f ", x, y);
    points += buffer;
  }
  std::string svg = "<svg class=\"spark\" width=\"224\" height=\"40\" "
                    "viewBox=\"-2 -2 224 40\"><polyline points=\"" +
                    points + "\" fill=\"none\" stroke=\"#2b6cb0\" "
                    "stroke-width=\"1.5\"/></svg>";
  svg += "<span class=\"range\">" + FormatNumber(lo) + " … " +
         FormatNumber(hi) + "</span>";
  return svg;
}

// Messages, bytes and drops per message type, from the network section;
// types with nothing sent or dropped are left out.
void RenderTraffic(const JsonValue& network, std::string* html) {
  const JsonValue& messages = network.At("messages_by_type");
  if (messages.object.empty()) return;
  const JsonValue& bytes = network.At("bytes_by_type");
  const JsonValue& dropped = network.At("dropped_by_type");
  *html += "<details open><summary>wireless traffic by message type"
           "</summary><table><tr><th>type</th><th>messages</th>"
           "<th>bytes</th><th>dropped</th></tr>";
  for (const auto& [name, count] : messages.object) {
    const double lost = dropped.At(name).number;
    if (count.number == 0 && lost == 0) continue;
    *html += "<tr><td>" + HtmlEscape(name) + "</td><td class=\"num\">" +
             FormatNumber(count.number) + "</td><td class=\"num\">" +
             FormatNumber(bytes.At(name).number) +
             "</td><td class=\"num\">" + FormatNumber(lost) + "</td></tr>";
  }
  *html += "</table></details>";
}

void RenderGauges(const JsonValue& metrics, std::string* html) {
  const JsonValue& gauges = metrics.At("gauges");
  if (gauges.object.empty()) return;
  *html += "<details open><summary>gauges (" +
           std::to_string(gauges.object.size()) +
           ")</summary><table><tr><th>name</th><th>value</th></tr>";
  for (const auto& [name, value] : gauges.object) {
    *html += "<tr><td>" + HtmlEscape(name) + "</td><td class=\"num\">" +
             FormatNumber(value.number) + "</td></tr>";
  }
  *html += "</table></details>";
}

void RenderHistograms(const JsonValue& metrics, std::string* html) {
  const JsonValue& histograms = metrics.At("histograms");
  if (histograms.object.empty()) return;
  *html += "<details open><summary>histograms (" +
           std::to_string(histograms.object.size()) +
           ")</summary><table><tr><th>name</th><th>count</th><th>mean</th>"
           "<th>buckets</th></tr>";
  for (const auto& [name, hist] : histograms.object) {
    const double count = hist.At("count").number;
    const double sum = hist.At("sum").number;
    std::vector<double> counts;
    for (const JsonValue& c : hist.At("counts").array) {
      counts.push_back(c.number);
    }
    *html += "<tr><td>" + HtmlEscape(name) + "</td><td class=\"num\">" +
             FormatNumber(count) + "</td><td class=\"num\">" +
             FormatNumber(count > 0 ? sum / count : 0.0) + "</td><td>" +
             Sparkline(counts) + "</td></tr>";
  }
  *html += "</table></details>";
}

void RenderSeries(const JsonValue& series, std::string* html) {
  const JsonValue& columns = series.At("series");
  if (columns.object.empty()) return;
  *html += "<details open><summary>per-step series (" +
           std::to_string(columns.object.size()) +
           " columns)</summary><table><tr><th>column</th>"
           "<th>sparkline</th></tr>";
  for (const auto& [name, values] : columns.object) {
    std::vector<double> data;
    for (const JsonValue& v : values.array) data.push_back(v.number);
    *html += "<tr><td>" + HtmlEscape(name) + "</td><td>" + Sparkline(data) +
             "</td></tr>";
  }
  const double total = series.At("total_recorded").number;
  const double dropped = series.At("dropped").number;
  *html += "</table><p class=\"note\">" + FormatNumber(total) +
           " rows recorded, " + FormatNumber(dropped) +
           " overwritten by the ring buffer.</p></details>";
}

void RenderHeatmap(const JsonValue& heatmap, std::string* html) {
  const JsonValue& channels = heatmap.At("channels");
  if (channels.object.empty()) return;
  const int rows = static_cast<int>(heatmap.At("rows").number);
  const int cols = static_cast<int>(heatmap.At("cols").number);
  if (rows <= 0 || cols <= 0) return;
  *html += "<details open><summary>heat maps (" + std::to_string(cols) +
           "×" + std::to_string(rows) + " cells)</summary>";
  for (const auto& [name, channel] : channels.object) {
    const JsonValue& total = channel.At("total");
    const JsonValue& window = channel.At("window");
    const auto cells = static_cast<size_t>(rows) * static_cast<size_t>(cols);
    if (total.array.size() != cells) continue;
    std::vector<double> values(cells, 0.0);
    double max = 0.0;
    for (size_t k = 0; k < cells; ++k) {
      values[k] = total.array[k].number +
                  (window.array.size() == cells ? window.array[k].number : 0);
      max = std::max(max, values[k]);
    }
    *html += "<div class=\"hm\"><div class=\"hmname\">" + HtmlEscape(name) +
             " (max " + FormatNumber(max) +
             ")</div><div class=\"grid\" style=\"grid-template-columns: "
             "repeat(" +
             std::to_string(cols) + ", 7px)\">";
    for (int j = 0; j < rows; ++j) {
      for (int i = 0; i < cols; ++i) {
        const double v = values[static_cast<size_t>(j) * cols + i];
        const double a = max > 0 ? v / max : 0.0;
        char cell[96];
        std::snprintf(cell, sizeof(cell),
                      "<i style=\"background:rgba(192,42,42,%.3f)\" "
                      "title=\"(%d,%d)=%s\"></i>",
                      a, i, j, FormatNumber(v).c_str());
        *html += cell;
      }
    }
    *html += "</div></div>";
  }
  *html += "</details>";
}

void RenderLifecycle(const JsonValue& lifecycle, std::string* html) {
  const JsonValue& kinds = lifecycle.At("kinds");
  if (kinds.object.empty()) return;
  std::string bounds_label;
  for (const JsonValue& b : lifecycle.At("bounds").array) {
    if (!bounds_label.empty()) bounds_label += "/";
    bounds_label += FormatNumber(b.number);
  }
  *html += "<details open><summary>lifecycle latencies (virtual steps; "
           "buckets ≤" +
           bounds_label +
           "/overflow)</summary><table><tr><th>round</th><th>resolved</th>"
           "<th>mean steps</th><th>pending</th><th>restamped</th>"
           "<th>cancelled</th><th>latency buckets</th></tr>";
  for (const auto& [name, kind] : kinds.object) {
    const double resolved = kind.At("resolved").number;
    const double sum = kind.At("sum").number;
    std::vector<double> counts;
    for (const JsonValue& c : kind.At("counts").array) {
      counts.push_back(c.number);
    }
    *html += "<tr><td>" + HtmlEscape(name) + "</td><td class=\"num\">" +
             FormatNumber(resolved) + "</td><td class=\"num\">" +
             FormatNumber(resolved > 0 ? sum / resolved : 0.0) +
             "</td><td class=\"num\">" +
             FormatNumber(kind.At("pending").number) +
             "</td><td class=\"num\">" +
             FormatNumber(kind.At("restamped").number) +
             "</td><td class=\"num\">" +
             FormatNumber(kind.At("cancelled").number) + "</td><td>" +
             Sparkline(counts) + "</td></tr>";
  }
  *html += "</table></details>";
}

void RenderReport(const JsonValue& report, const std::string& label,
                  std::string* html) {
  *html += "<section><h2>" + HtmlEscape(label) + "</h2>";
  if (report.Has("mode")) {
    *html += "<p class=\"note\">mode " +
             HtmlEscape(report.At("mode").string) + ", " +
             FormatNumber(report.At("steps").number) +
             " measured steps.</p>";
  }
  RenderTraffic(report.At("network"), html);
  RenderGauges(report.At("metrics"), html);
  RenderHistograms(report.At("metrics"), html);
  RenderSeries(report.At("series"), html);
  RenderHeatmap(report.At("heatmap"), html);
  RenderLifecycle(report.At("lifecycle"), html);
  *html += "</section>";
}

}  // namespace

const JsonValue& JsonValue::At(const std::string& key) const {
  static const JsonValue kNullValue;
  if (kind != Kind::kObject) return kNullValue;
  auto it = object.find(key);
  return it == object.end() ? kNullValue : it->second;
}

std::unique_ptr<JsonValue> ParseJson(const std::string& text,
                                     std::string* error) {
  JsonParser parser(text);
  std::unique_ptr<JsonValue> value = parser.Parse();
  if (value == nullptr && error != nullptr) *error = parser.error();
  return value;
}

std::string RenderHtmlReport(const JsonValue& root, const std::string& title) {
  std::string html =
      "<!doctype html><html><head><meta charset=\"utf-8\"><title>" +
      HtmlEscape(title) +
      "</title><style>"
      "body{font:14px/1.45 system-ui,sans-serif;margin:24px;color:#1a202c}"
      "h1{font-size:20px}h2{font-size:16px;border-bottom:1px solid #cbd5e0;"
      "padding-bottom:4px}"
      "table{border-collapse:collapse;margin:8px 0}"
      "th,td{border:1px solid #e2e8f0;padding:2px 8px;text-align:left}"
      "td.num{text-align:right;font-variant-numeric:tabular-nums}"
      "details{margin:12px 0}summary{cursor:pointer;font-weight:600}"
      ".spark{vertical-align:middle}.range{color:#718096;font-size:12px;"
      "margin-left:6px}.note{color:#718096}.empty{color:#a0aec0}"
      ".hm{display:inline-block;vertical-align:top;margin:8px 16px 8px 0}"
      ".hmname{font-size:12px;color:#4a5568}"
      ".grid{display:grid;gap:0;border:1px solid #e2e8f0;width:max-content}"
      ".grid i{width:7px;height:7px;display:block}"
      "</style></head><body><h1>" +
      HtmlEscape(title) + "</h1>";
  if (root.Has("cells")) {
    for (const JsonValue& cell : root.At("cells").array) {
      RenderReport(cell.At("report"), cell.At("label").string, &html);
    }
  } else {
    RenderReport(root, "run", &html);
  }
  html += "</body></html>";
  return html;
}

}  // namespace mobieyes::obs

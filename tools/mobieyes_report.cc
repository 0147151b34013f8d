// mobieyes_report: renders an observability JSON export into a single
// self-contained HTML report — per-type traffic and metric tables,
// histogram and StepSampler sparklines, heat-map grids and lifecycle latency
// tables, all inline CSS and SVG with no external dependencies (DESIGN.md
// §12).
//
// Accepts either a Simulation::ObservabilityJson object (mobieyes_sim
// --metrics-json / --report input) or a bench metrics file with per-cell
// reports ({"bench": ..., "cells": [{"label": ..., "report": {...}}]}),
// rendering one section per cell.
//
// Usage:
//   mobieyes_report INPUT.json OUTPUT.html [--title=TEXT]

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "mobieyes/obs/report_html.h"

namespace {

void PrintUsage(const char* argv0) {
  std::fprintf(stderr, "usage: %s INPUT.json OUTPUT.html [--title=TEXT]\n",
               argv0);
}

bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buffer[1 << 16];
  size_t n;
  out->clear();
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    out->append(buffer, n);
  }
  bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string output;
  std::string title;
  for (int k = 1; k < argc; ++k) {
    if (std::strncmp(argv[k], "--title=", 8) == 0) {
      title = argv[k] + 8;
    } else if (std::strncmp(argv[k], "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", argv[k]);
      PrintUsage(argv[0]);
      return 2;
    } else if (input.empty()) {
      input = argv[k];
    } else if (output.empty()) {
      output = argv[k];
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", argv[k]);
      PrintUsage(argv[0]);
      return 2;
    }
  }
  if (input.empty() || output.empty()) {
    PrintUsage(argv[0]);
    return 2;
  }
  if (title.empty()) title = input;

  std::string json;
  if (!ReadFile(input, &json)) {
    std::fprintf(stderr, "failed to read %s\n", input.c_str());
    return 1;
  }
  std::string error;
  std::unique_ptr<mobieyes::obs::JsonValue> root =
      mobieyes::obs::ParseJson(json, &error);
  if (root == nullptr) {
    std::fprintf(stderr, "%s: %s\n", input.c_str(), error.c_str());
    return 1;
  }
  std::string html = mobieyes::obs::RenderHtmlReport(*root, title);
  std::FILE* f = std::fopen(output.c_str(), "w");
  if (f == nullptr ||
      std::fwrite(html.data(), 1, html.size(), f) != html.size()) {
    std::fprintf(stderr, "failed to write %s\n", output.c_str());
    if (f != nullptr) std::fclose(f);
    return 1;
  }
  std::fclose(f);
  std::fprintf(stderr, "wrote %zu bytes to %s\n", html.size(), output.c_str());
  return 0;
}

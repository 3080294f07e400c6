#include "workload/trace_io.hh"

#include <fstream>
#include <sstream>
#include <vector>

#include "common/log.hh"

namespace protozoa {

Workload
readTrace(std::istream &in, unsigned num_cores)
{
    std::vector<std::vector<TraceRecord>> per_core(num_cores);

    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const auto first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#')
            continue;

        std::istringstream is(line);
        unsigned core;
        std::string op;
        std::uint64_t addr, pc;
        unsigned gap;
        if (!(is >> core >> op >> std::hex >> addr >> pc >> std::dec >>
              gap))
            fatal("trace line %zu: malformed record '%s'", line_no,
                  line.c_str());
        if (core >= num_cores)
            fatal("trace line %zu: core %u out of range (%u cores)",
                  line_no, core, num_cores);
        if (op != "L" && op != "S")
            fatal("trace line %zu: op must be L or S, got '%s'",
                  line_no, op.c_str());
        if (gap > 0xffff)
            fatal("trace line %zu: gap %u too large", line_no, gap);
        std::string rest;
        if (is >> rest)
            fatal("trace line %zu: trailing garbage '%s' after record",
                  line_no, rest.c_str());

        TraceRecord rec;
        rec.addr = wordAlign(addr);
        rec.pc = pc;
        rec.isWrite = op == "S";
        rec.gapInstrs = static_cast<std::uint16_t>(gap);
        per_core[core].push_back(rec);
    }

    Workload out;
    for (auto &recs : per_core)
        out.push_back(std::make_unique<VectorTrace>(std::move(recs)));
    return out;
}

Workload
readTraceFile(const std::string &path, unsigned num_cores)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file '%s'", path.c_str());
    return readTrace(in, num_cores);
}

} // namespace protozoa

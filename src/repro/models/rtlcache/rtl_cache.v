// ---------------------------------------------------------------------------
// RTL cache (direct-mapped, write-through, one outstanding miss)
//
// The paper's Figure 2(a) connectivity example: an RTLObject standing in as
// an L1 data cache between a core and the rest of the hierarchy — the very
// scenario the paper argues needs a tightly-coupled co-simulation interface
// ("adding a new cache in RTL connected to the cores of gem5 would be very
// difficult to simulate [with IPC-based coupling]").
//
// Interface (one request at a time, valid/ready-free for simplicity):
//   req_*   : 8-byte CPU read/write requests
//   resp_*  : read data + hit flag, one or more cycles later
//   miss_*  : 64-byte line-fill request toward memory
//   fill_*  : line-fill data returning from memory
//   wt_*    : write-through traffic toward memory
//   snoop_* : coherence probe port (SNOOP configuration)
//
// Data is stored in the RTL (512-bit lines), so read hits return data that
// travelled through the hardware model, not through a simulator back door.
//
// Parameters select a configuration; the port list is the union of all
// of them, and a configuration never writes the ports it does not use.
//
// ECC = 1: one even-parity bit per 64-bit word of every line.  A parity
// mismatch on a read hit is not served: it counts a correction
// (`corrections`, read by fault-campaign triage) and refetches the line
// from memory, which write-through keeps authoritative; the fill rewrites
// data and parity.  A single-bit upset becomes detected-and-corrected
// instead of silent data corruption.
//
// SNOOP = 1: an invalidate-only probe port for the repro.coherence MESI
// directory.  A probe (snoop_valid/snoop_addr) is acknowledged on the next
// edge (snoop_ack) with snoop_hit set if the line was resident; a hit
// clears its valid bit.  Write-through lines are always clean, so there
// is no data response.  The snoop block comes last in the always body,
// so at a shared edge the invalidate wins over a same-index install.
//
// Compiled unmodified by repro.hdl.verilog.
// ---------------------------------------------------------------------------

module rtl_cache #(
    parameter IDXW = 6,    // 2^IDXW lines of 64 bytes
    parameter ECC = 0,     // per-word parity + refetch on mismatch
    parameter SNOOP = 0    // coherence probe port
) (
    input clk,
    input rst,

    // CPU-side request (held stable until resp_valid)
    input req_valid,
    input req_write,
    input [31:0] req_addr,
    input [63:0] req_wdata,
    output reg resp_valid,
    output reg [63:0] resp_rdata,
    output reg resp_was_hit,

    // memory-side: line fill
    output reg miss_valid,
    output reg [31:0] miss_addr,
    input fill_valid,
    input [511:0] fill_data,

    // memory-side: write-through
    output reg wt_valid,
    output reg [31:0] wt_addr,
    output reg [63:0] wt_data,

    // coherence probe port (invalidate-only; write-through => always clean)
    // repro-lint: waive=UNUSED  (read only with SNOOP)
    input snoop_valid,
    // repro-lint: waive=UNUSED  (read only with SNOOP)
    input [31:0] snoop_addr,
    output reg snoop_ack,
    output reg snoop_hit,

    // observability
    output [31:0] hit_count,
    output [31:0] miss_count,
    output [31:0] corrections,
    output [31:0] snoop_count
);

    localparam LINES = 1 << IDXW;

    reg [19:0] tags [0:LINES-1];
    reg [LINES-1:0] valid;
    reg [511:0] data [0:LINES-1];
    if (ECC)
        reg [7:0] par [0:LINES-1];   // one even-parity bit per 64-bit word

    reg busy;                 // miss outstanding
    reg [31:0] hits;
    reg [31:0] misses;
    if (ECC)
        reg [31:0] corr;
    if (SNOOP)
        reg [31:0] snoops;
    integer i;

    wire [IDXW-1:0] index;
    wire [19:0] tag;
    wire [2:0] word;
    wire hit;

    assign index = req_addr[IDXW+5:6];
    assign tag = req_addr[31:12];
    assign word = req_addr[5:3];
    assign hit = valid[index] && (tags[index] == tag);
    assign hit_count = hits;
    assign miss_count = misses;

    if (SNOOP) begin
        wire [IDXW-1:0] snoop_index;
        wire [19:0] snoop_tag;
        wire snoop_match;

        assign snoop_index = snoop_addr[IDXW+5:6];
        assign snoop_tag = snoop_addr[31:12];
        assign snoop_match = valid[snoop_index] && (tags[snoop_index] == snoop_tag);
        assign snoop_count = snoops;
    end

    if (ECC) begin
        assign corrections = corr;

        // per-word parity of an incoming fill
        wire [63:0] f0, f1, f2, f3, f4, f5, f6, f7;
        assign f0 = fill_data[63:0];
        assign f1 = fill_data[127:64];
        assign f2 = fill_data[191:128];
        assign f3 = fill_data[255:192];
        assign f4 = fill_data[319:256];
        assign f5 = fill_data[383:320];
        assign f6 = fill_data[447:384];
        assign f7 = fill_data[511:448];
        wire [7:0] fill_par;
        assign fill_par = {^f7, ^f6, ^f5, ^f4, ^f3, ^f2, ^f1, ^f0};

        // the addressed word of the indexed line, and its stored parity bit
        wire [511:0] line;
        wire [63:0] sel;
        wire [7:0] line_par;
        wire stored_par;
        wire perr;
        assign line = data[index];
        // the shift selects one 64-bit word of the line; dropping the
        // upper bits is the whole point
        // repro-lint: waive=WIDTH
        assign sel = line >> {word, 6'b0};
        assign line_par = par[index];
        // LSB after the shift is this word's parity bit
        // repro-lint: waive=WIDTH
        assign stored_par = line_par >> word;
        assign perr = (^sel) != stored_par;
    end

    always @(posedge clk) begin
        if (rst) begin
            valid <= 0;
            busy <= 0;
            hits <= 0;
            misses <= 0;
            if (ECC)
                corr <= 0;
            if (SNOOP) begin
                snoops <= 0;
                snoop_ack <= 0;
                snoop_hit <= 0;
            end
            resp_valid <= 0;
            resp_rdata <= 0;
            resp_was_hit <= 0;
            miss_valid <= 0;
            miss_addr <= 0;
            wt_valid <= 0;
            wt_addr <= 0;
            wt_data <= 0;
            for (i = 0; i < LINES; i = i + 1) begin
                tags[i] <= 0;
                if (ECC)
                    par[i] <= 0;
            end
        end else begin
            resp_valid <= 0;
            miss_valid <= 0;
            wt_valid <= 0;
            if (SNOOP) begin
                snoop_ack <= 0;
                snoop_hit <= 0;
            end

            if (busy) begin
                // waiting for the line fill
                if (fill_valid) begin
                    data[index] <= fill_data;
                    if (ECC)
                        par[index] <= fill_par;
                    tags[index] <= tag;
                    valid[index] <= 1'b1;
                    busy <= 0;
                    resp_valid <= 1;
                    resp_was_hit <= 0;
                    // the shift selects one 64-bit word of the line;
                    // dropping the upper bits is the whole point
                    // repro-lint: waive=WIDTH
                    resp_rdata <= fill_data >> {word, 6'b0};
                end
            end else if (req_valid) begin
                if (req_write) begin
                    // write-through; update the line (and its parity)
                    // only on a write hit
                    if (hit) begin
                        data[index] <= (data[index]
                            & ~(512'hFFFF_FFFF_FFFF_FFFF << {word, 6'b0}))
                            | ({448'b0, req_wdata} << {word, 6'b0});
                        if (ECC)
                            par[index] <= (par[index] & ~(8'b1 << word))
                                | ({7'b0, ^req_wdata} << word);
                        hits <= hits + 1;
                    end else begin
                        misses <= misses + 1;
                    end
                    wt_valid <= 1;
                    wt_addr <= req_addr;
                    wt_data <= req_wdata;
                    resp_valid <= 1;
                    resp_was_hit <= hit;
                end else if (hit) begin
                    if (ECC) begin
                        if (perr) begin
                            // parity mismatch on a read hit: detected.
                            // Refetch the line instead of serving
                            // corrupted data — the write-through memory
                            // below holds the truth.
                            corr <= corr + 1;
                            busy <= 1;
                            miss_valid <= 1;
                            miss_addr <= {req_addr[31:6], 6'b0};
                        end else begin
                            hits <= hits + 1;
                            resp_valid <= 1;
                            resp_was_hit <= 1;
                            resp_rdata <= sel;
                        end
                    end else begin
                        hits <= hits + 1;
                        resp_valid <= 1;
                        resp_was_hit <= 1;
                        // repro-lint: waive=WIDTH  (word-select truncation)
                        resp_rdata <= data[index] >> {word, 6'b0};
                    end
                end else begin
                    // read miss: fetch the line
                    misses <= misses + 1;
                    busy <= 1;
                    miss_valid <= 1;
                    miss_addr <= {req_addr[31:6], 6'b0};
                end
            end

            // Coherence probe: last so a same-edge invalidate beats a
            // same-index install or write-hit update.
            if (SNOOP) begin
                if (snoop_valid) begin
                    snoops <= snoops + 1;
                    snoop_ack <= 1;
                    if (snoop_match) begin
                        valid[snoop_index] <= 1'b0;
                        snoop_hit <= 1;
                    end
                end
            end
        end
    end

endmodule

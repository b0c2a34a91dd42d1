module Dram = Guillotine_memory.Dram
module Hierarchy = Guillotine_memory.Hierarchy
module Tlb = Guillotine_memory.Tlb
module Core = Guillotine_microarch.Core

type t = {
  dram : Dram.t;
  hierarchy : Hierarchy.t;
  tlb : Tlb.t;
  core : Core.t;
}

let create () =
  let dram = Dram.create ~size:(256 * 1024) in
  let hierarchy = Hierarchy.create ~dram () in
  (* The baseline pays nested (EPT) translation on every walk: a 2-D
     page walk touches up to 4x4+4 = 20+ memory references vs 4 for a
     single-level table, so the TLB miss penalty is ~6x Guillotine's. *)
  let tlb = Tlb.create ~walk_cost:120 () in
  let core = Core.create ~id:0 ~kind:Core.Model_core ~hierarchy ~tlb () in
  { dram; hierarchy; tlb; core }

let dram t = t.dram
let guest_view t = t.hierarchy
let host_view t = t.hierarchy
let shared_tlb t = t.tlb
let guest_core t = t.core

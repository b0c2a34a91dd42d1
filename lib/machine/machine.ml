module Core = Guillotine_microarch.Core
module Dram = Guillotine_memory.Dram
module Mmu = Guillotine_memory.Mmu
module Hierarchy = Guillotine_memory.Hierarchy
module Telemetry = Guillotine_telemetry.Telemetry

(* Every machine has one topology, the one its configuration string
   reports: 2 model cores and 1 hypervisor core, 256 KiW of model DRAM,
   64 KiW of hypervisor DRAM and a 16 KiW IO region. *)
let model_core_count = 2
let hyp_core_count = 1
let model_words = 256 * 1024
let hyp_words = 64 * 1024
let io_words = 16 * 1024

(* The IO region begins at this physical address in every domain's map;
   it lies beyond both DRAM sizes and on a page boundary. *)
let io_base_addr = 1 lsl 20

type t = {
  lapic_rate_limit : int;
  model_dram : Dram.t;
  hyp_dram : Dram.t;
  io_dram : Dram.t;
  models : Core.t array;
  hyps : Core.t array;
  lapic : Lapic.t;
  mutable hv_cycles : int;
  telemetry : Telemetry.t;
  c_retired : Telemetry.counter;
  c_hv_cycles : Telemetry.counter;
  c_dma_ok : Telemetry.counter;
  c_dma_blocked : Telemetry.counter;
  c_inspections : Telemetry.counter;
}

let create ?(lapic_rate_limit = 64) ?mode () =
  let model_dram = Dram.create ~size:model_words in
  let hyp_dram = Dram.create ~size:hyp_words in
  let io_dram = Dram.create ~size:io_words in
  let lapic = Lapic.create ~rate_limit:lapic_rate_limit in
  let make_core ~id ~kind ~dram =
    let hierarchy = Hierarchy.create ~io:(io_base_addr, io_dram) ~dram () in
    Core.create ~id ~kind ~hierarchy ?mode ()
  in
  let models =
    Array.init model_core_count (fun i ->
        make_core ~id:i ~kind:Core.Model_core ~dram:model_dram)
  in
  let hyps =
    Array.init hyp_core_count (fun i ->
        make_core ~id:(1000 + i) ~kind:Core.Hypervisor_core ~dram:hyp_dram)
  in
  let telemetry = Telemetry.create ~name:"machine" () in
  let t =
    {
      lapic_rate_limit;
      model_dram;
      hyp_dram;
      io_dram;
      models;
      hyps;
      lapic;
      hv_cycles = 0;
      telemetry;
      c_retired = Telemetry.counter telemetry "instructions.retired";
      c_hv_cycles = Telemetry.counter telemetry "hv.cycles_charged";
      c_dma_ok = Telemetry.counter telemetry "dma.bursts_ok";
      c_dma_blocked = Telemetry.counter telemetry "dma.bursts_blocked";
      c_inspections = Telemetry.counter telemetry "inspect.accesses";
    }
  in
  (* The machine's native clock is its own tick count; the deployment
     facade re-points this at unified sim-time. *)
  Telemetry.set_clock telemetry (fun () ->
      float_of_int
        (Array.fold_left (fun acc c -> acc + Core.cycles c) t.hv_cycles t.models));
  (* Fresh cores hold no program; they stay paused until one is
     installed. *)
  Array.iter Core.pause models;
  (* Wire each model core's doorbell into the LAPIC. *)
  Array.iteri
    (fun i core ->
      Core.set_irq_sink core (fun ~line ->
          let now =
            Array.fold_left (fun acc c -> acc + Core.cycles c) t.hv_cycles t.models
          in
          ignore (Lapic.raise_line t.lapic ~now ~line ~src_core:i)))
    models;
  t

let configuration t =
  Printf.sprintf "cores=%d/%d dram=%d/%d io=%d lapic=%d/%d" model_core_count
    hyp_core_count model_words hyp_words io_words t.lapic_rate_limit Lapic.window
let model_core t i = t.models.(i)
let hyp_core t i = t.hyps.(i)
let model_cores t = t.models
let hyp_cores t = t.hyps
let model_dram t = t.model_dram
let hyp_dram t = t.hyp_dram
let io_dram t = t.io_dram
let lapic t = t.lapic

let io_frame _ k =
  (* Frame numbers are relative to the default MMU page size. *)
  (io_base_addr / 256) + k

let now t =
  Array.fold_left (fun acc c -> acc + Core.cycles c) t.hv_cycles t.models

let charge_hypervisor t n =
  if n < 0 then invalid_arg "Machine.charge_hypervisor: negative";
  t.hv_cycles <- t.hv_cycles + n;
  Telemetry.incr ~by:n t.c_hv_cycles

let hypervisor_cycles t = t.hv_cycles

let run_models t ~quantum =
  let retired =
    Array.fold_left
      (fun acc core ->
        match Core.status core with
        | Core.Running -> acc + Core.run core ~fuel:quantum
        | Core.Halted _ | Core.Powered_off -> acc)
      0 t.models
  in
  Telemetry.incr ~by:retired t.c_retired;
  retired

let run_cores t ~cycles =
  let retired =
    Array.fold_left
      (fun acc core ->
        match Core.status core with
        | Core.Running -> acc + Core.run_cycles core ~cycles
        | Core.Halted _ | Core.Powered_off -> acc)
      0 t.models
  in
  Telemetry.incr ~by:retired t.c_retired;
  retired

let all_models_quiescent t =
  Array.for_all
    (fun core ->
      match Core.status core with
      | Core.Running -> false
      | Core.Halted _ | Core.Powered_off -> true)
    t.models

let pause_all_models t = Array.iter Core.pause t.models
let resume_all_models t = Array.iter Core.resume t.models

let power_down_all_models t =
  pause_all_models t;
  Array.iter Core.power_down t.models

let identity_map t ~core ~from_page ~to_page perm =
  let mmu = Core.mmu t.models.(core) in
  for p = from_page to to_page do
    match Mmu.map mmu ~vpage:p ~frame:p perm with
    | Ok () -> ()
    | Error f -> failwith (Format.asprintf "identity_map page %d: %a" p Mmu.pp_fault f)
  done

let map_io_page t ~core ~vpage ~io_page perm =
  let mmu = Core.mmu t.models.(core) in
  match Mmu.map mmu ~vpage ~frame:(io_frame t io_page) perm with
  | Ok () -> ()
  | Error f -> failwith (Format.asprintf "map_io_page: %a" Mmu.pp_fault f)

let install_program t ~core ~code_pages ~data_pages program =
  if code_pages <= 0 then invalid_arg "install_program: need at least one code page";
  let c = t.models.(core) in
  (* Page 0 holds the vector table inside the image, so code pages need
     read (for the vector slots) and execute. *)
  identity_map t ~core ~from_page:0 ~to_page:(code_pages - 1) Mmu.perm_rx;
  if data_pages > 0 then
    identity_map t ~core ~from_page:code_pages
      ~to_page:(code_pages + data_pages - 1)
      Mmu.perm_rw;
  Dram.load_program t.model_dram program;
  (match Core.status c with
  | Core.Running -> Core.pause c
  | Core.Halted _ | Core.Powered_off -> ());
  Core.set_pc c program.origin;
  Core.resume c

(* Validate the whole burst before touching DRAM: partial DMA writes
   are how a malicious device would smuggle half a payload.  The scan
   uses the allocation-free [Iommu.translate_raw] (no per-word [Ok] or
   list cons); only a faulting burst takes the allocating path, re-running
   the one bad address through [Iommu.translate] to count the blocked
   DMA and recover the fault detail. *)
let dma_validate_burst iommu ~dma_addr ~len ~access =
  let rec first_fault i =
    if i = len then -1
    else if Guillotine_memory.Iommu.translate_raw iommu ~addr:(dma_addr + i) ~access < 0
    then i
    else first_fault (i + 1)
  in
  match first_fault 0 with
  | -1 -> Ok ()
  | i -> (
    match Guillotine_memory.Iommu.translate iommu ~addr:(dma_addr + i) ~access with
    | Ok _ -> assert false (* the raw scan just faulted here *)
    | Error f ->
      Error
        (Format.asprintf "DMA blocked at device address %d: %a" (dma_addr + i)
           Guillotine_memory.Mmu.pp_fault f))

let dma_write t ~iommu ~dma_addr words =
  match
    dma_validate_burst iommu ~dma_addr ~len:(Array.length words) ~access:`W
  with
  | Error _ as e ->
    Telemetry.incr t.c_dma_blocked;
    e
  | Ok () ->
    Array.iteri
      (fun i w ->
        let paddr =
          Guillotine_memory.Iommu.translate_raw iommu ~addr:(dma_addr + i) ~access:`W
        in
        Dram.write t.model_dram paddr w)
      words;
    Telemetry.incr t.c_dma_ok;
    Ok ()

let dma_read t ~iommu ~dma_addr ~len =
  match dma_validate_burst iommu ~dma_addr ~len ~access:`R with
  | Error _ as e ->
    Telemetry.incr t.c_dma_blocked;
    e
  | Ok () ->
    Telemetry.incr t.c_dma_ok;
    Ok
      (Array.init len (fun i ->
           let paddr =
             Guillotine_memory.Iommu.translate_raw iommu ~addr:(dma_addr + i)
               ~access:`R
           in
           Dram.read t.model_dram paddr))

exception Inspection_denied of string

let require_quiescent t op =
  if not (all_models_quiescent t) then
    raise
      (Inspection_denied
         (Printf.sprintf "%s: private bus requires all model cores halted" op))

let inspect_read t addr =
  require_quiescent t "inspect_read";
  Telemetry.incr t.c_inspections;
  Dram.read t.model_dram addr

let inspect_write t addr v =
  require_quiescent t "inspect_write";
  Telemetry.incr t.c_inspections;
  Dram.write t.model_dram addr v

let inspect_region t ~at ~len =
  require_quiescent t "inspect_region";
  Telemetry.incr t.c_inspections;
  Dram.snapshot t.model_dram ~at ~len

let measure_model_memory t ~at ~len =
  require_quiescent t "measure_model_memory";
  Telemetry.incr t.c_inspections;
  Guillotine_crypto.Sha256.digest (Dram.hash_region t.model_dram ~at ~len)

let telemetry t = t.telemetry

let metrics t =
  let base = Telemetry.snapshot t.telemetry in
  let per_core =
    Array.to_list t.models
    |> List.concat_map (fun core ->
           let i = Core.id core in
           [
             (Printf.sprintf "core%d.retired" i,
              Telemetry.Counter (Core.instructions_retired core));
             (Printf.sprintf "core%d.traps" i,
              Telemetry.Counter (Core.traps_taken core));
             (Printf.sprintf "core%d.irqs" i,
              Telemetry.Counter (Core.interrupts_delivered core));
             (Printf.sprintf "core%d.flushes" i,
              Telemetry.Counter (Core.microarch_clears core));
           ]
           @
           (* Host-side execution-plane counters: simulated behaviour is
              identical with either plane on or off, but trace/monitor
              views want to see whether (and how hard) the fast paths
              are working. *)
           (let hits, fills = Core.predecode_stats core in
            let js = Core.jit_stats core in
            [
              (Printf.sprintf "core%d.predecode.hits" i, Telemetry.Counter hits);
              (Printf.sprintf "core%d.predecode.fills" i,
               Telemetry.Counter fills);
              (Printf.sprintf "core%d.jit.translations" i,
               Telemetry.Counter js.Guillotine_microarch.Jit.translations);
              (Printf.sprintf "core%d.jit.invalidations" i,
               Telemetry.Counter js.Guillotine_microarch.Jit.invalidations);
              (Printf.sprintf "core%d.jit.block_exits" i,
               Telemetry.Counter js.Guillotine_microarch.Jit.block_exits);
            ]))
  in
  Telemetry.snapshot_of ~component:base.Telemetry.component
    (base.Telemetry.values @ per_core)

module Asm = Guillotine_isa.Asm

(* ------------------------------------------------------------------ *)
(* Physical segments                                                   *)
(* ------------------------------------------------------------------ *)

type seg = { base : int; len : int }

let page_words = Cfg.page_words

let normalize_segs segs =
  let segs = List.filter (fun s -> s.len > 0) segs in
  let segs = List.sort (fun a b -> compare (a.base, a.len) (b.base, b.len)) segs in
  let rec merge = function
    | a :: b :: rest when b.base <= a.base + a.len ->
        let hi = max (a.base + a.len) (b.base + b.len) in
        merge ({ a with len = hi - a.base } :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  merge segs

let seg_overlap a b =
  let lo = max a.base b.base and hi = min (a.base + a.len) (b.base + b.len) in
  if lo < hi then Some { base = lo; len = hi - lo } else None

let intersect xs ys =
  normalize_segs
    (List.concat_map
       (fun x -> List.filter_map (fun y -> seg_overlap x y) ys)
       xs)

let mem segs addr =
  List.exists (fun s -> addr >= s.base && addr < s.base + s.len) segs

let pp_segs segs =
  if segs = [] then "-"
  else
    String.concat ","
      (List.map
         (fun s -> Printf.sprintf "[%d,%d)" s.base (s.base + s.len))
         segs)

(* ------------------------------------------------------------------ *)
(* Guest specification                                                 *)
(* ------------------------------------------------------------------ *)

type spec = {
  label : string;
  program : Asm.program;
  code_pages : int;
  data_pages : int;
  extra : Absint.range list;
  frame_base : int;
  aliases : (int * int) list;
  dma : (int * int * bool) list;
  dma_descriptors : Absint.range list;
}

let spec ?(extra = []) ?(frame_base = 0) ?(aliases = []) ?(dma = [])
    ?(dma_descriptors = []) ~label ~code_pages ~data_pages program =
  if code_pages <= 0 then invalid_arg "Summary.spec: code_pages must be positive";
  if data_pages < 0 then invalid_arg "Summary.spec: negative data_pages";
  if frame_base < 0 then invalid_arg "Summary.spec: negative frame_base";
  { label; program; code_pages; data_pages; extra; frame_base; aliases; dma;
    dma_descriptors }

let phys_page spec vpage =
  match List.assoc_opt vpage spec.aliases with
  | Some frame -> frame
  | None -> spec.frame_base + vpage

(* Translate a virtual segment into physical segments, page by page:
   contiguity in guest-virtual space says nothing about contiguity in
   DRAM once aliases are in play. *)
let translate_seg spec { base; len } =
  let rec go acc addr remaining =
    if remaining <= 0 then acc
    else
      let vpage = addr / page_words and off = addr mod page_words in
      let chunk = min remaining (page_words - off) in
      let p = phys_page spec vpage in
      go ({ base = (p * page_words) + off; len = chunk } :: acc)
        (addr + chunk) (remaining - chunk)
  in
  if base < 0 then invalid_arg "Summary.translate_seg: negative base";
  normalize_segs (go [] base len)

(* An extra window reaches model DRAM only when every page it covers is
   mapped there — inside the identity-mapped code/data grant or named by
   an alias.  Anything else (the port IO pages, vpage 101 in the corpus)
   is per-port IO DRAM: private to the port by construction
   ([grant_port] refuses to hand the same IO page out twice), so it can
   never alias another guest's memory and is excluded from the
   interference footprint. *)
let window_in_model_space spec (w : Absint.range) =
  let ident_pages = spec.code_pages + spec.data_pages in
  let first = w.base / page_words in
  let last = (w.base + w.len - 1) / page_words in
  let rec all p =
    p > last
    || ((p < ident_pages || List.mem_assoc p spec.aliases) && all (p + 1))
  in
  w.len > 0 && all first

(* ------------------------------------------------------------------ *)
(* The effect summary                                                  *)
(* ------------------------------------------------------------------ *)

type t = {
  label : string;
  verdict : Vet.verdict;
  report : Vet.report;
  code_span : seg list;
  data_span : seg list;
  grant_span : seg list;
  may_read : seg list;
  may_write : seg list;
  may_flush : seg list;
  dma_writable : seg list;
  descriptor_span : seg list;
  doorbell_bound : int option;
  dma_reaches_code : bool;
}

(* Clamp one abstract access against the guest's model-space windows of
   the right mode and translate the surviving portions to DRAM.  The
   clamp is what makes the summary sound rather than merely suggestive:
   whatever part of the interval lies outside the grant is exactly the
   part the MMU faults on at runtime, so the concrete effect is always
   inside target ∩ windows. *)
let clamped_effect spec windows (target : Absint.ivl) =
  List.concat_map
    (fun (w : Absint.range) ->
      let lo = max target.Absint.lo w.base in
      let hi = min target.Absint.hi (w.base + w.len - 1) in
      if lo > hi then [] else translate_seg spec { base = lo; len = hi - lo + 1 })
    windows

let summarize (s : spec) =
  let report, cfg, absint =
    Vet.analyze ~label:s.label ~extra:s.extra ~code_pages:s.code_pages
      ~data_pages:s.data_pages s.program
  in
  let code_words = s.code_pages * page_words in
  let data_words = s.data_pages * page_words in
  let code_virt = { Absint.base = 0; len = code_words; writable = false } in
  let data_virt =
    { Absint.base = code_words; len = data_words; writable = true }
  in
  let model_extra = List.filter (window_in_model_space s) s.extra in
  let write_windows =
    Absint.normalize_windows
      (data_virt :: List.filter (fun (w : Absint.range) -> w.writable) model_extra)
  in
  let read_windows =
    Absint.normalize_windows (code_virt :: data_virt :: model_extra)
  in
  let collect kind windows =
    normalize_segs
      (List.concat_map
         (fun (a : Absint.access) ->
           if a.Absint.kind = kind then clamped_effect s windows a.Absint.target
           else [])
         absint.Absint.accesses)
  in
  let code_span = translate_seg s { base = 0; len = code_words } in
  let data_span = translate_seg s { base = code_words; len = data_words } in
  let grant_span =
    normalize_segs
      (List.concat_map
         (fun (w : Absint.range) ->
           translate_seg s { base = w.base; len = w.len })
         write_windows)
  in
  let dma_writable =
    normalize_segs
      (List.filter_map
         (fun (_, frame, writable) ->
           if writable then Some { base = frame * page_words; len = page_words }
           else None)
         s.dma)
  in
  let descriptor_span =
    normalize_segs
      (List.concat_map
         (fun (w : Absint.range) ->
           translate_seg s { base = w.base; len = w.len })
         s.dma_descriptors)
  in
  {
    label = s.label;
    verdict = report.Vet.verdict;
    report;
    code_span;
    data_span;
    grant_span;
    may_read = collect Absint.Read read_windows;
    may_write = collect Absint.Write write_windows;
    may_flush = collect Absint.Flush read_windows;
    dma_writable;
    descriptor_span;
    doorbell_bound = Lints.doorbell_total_bound ~cfg ~absint;
    dma_reaches_code = intersect dma_writable code_span <> [];
  }

let footprint t =
  normalize_segs (t.code_span @ t.data_span @ t.grant_span)

let pp_doorbell = function
  | None -> "unbounded"
  | Some n -> Printf.sprintf "<=%d" n

let to_text t =
  String.concat "\n"
    [
      Printf.sprintf "guest %s: %s" t.label (Vet.verdict_label t.verdict);
      Printf.sprintf "  code  %s data %s grant %s" (pp_segs t.code_span)
        (pp_segs t.data_span) (pp_segs t.grant_span);
      Printf.sprintf "  write %s read %s flush %s" (pp_segs t.may_write)
        (pp_segs t.may_read) (pp_segs t.may_flush);
      Printf.sprintf "  dma   %s descriptors %s doorbells %s dma->code %b"
        (pp_segs t.dma_writable)
        (pp_segs t.descriptor_span)
        (pp_doorbell t.doorbell_bound)
        t.dma_reaches_code;
    ]

module Isa = Guillotine_isa.Isa

type severity = Info | Warn | Error

let severity_label = function
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let severity_rank = function Info -> 0 | Warn -> 1 | Error -> 2

type finding = {
  rule : string;
  severity : severity;
  addr : int option;
  detail : string;
}

let pp_ivl (i : Absint.ivl) =
  let endpoint v =
    if v = min_int then "-inf"
    else if v = max_int then "+inf"
    else string_of_int v
  in
  Printf.sprintf "[%s, %s]" (endpoint i.Absint.lo) (endpoint i.Absint.hi)

let access_findings (accesses : Absint.access list) =
  List.concat_map
    (fun (a : Absint.access) ->
      let op =
        match a.kind with
        | Absint.Read -> "load"
        | Absint.Write -> "store"
        | Absint.Flush -> "flush"
      in
      let escape =
        match a.cls with
        | Absint.In_bounds -> []
        | Absint.Escapes ->
            [
              {
                rule = Printf.sprintf "mem.%s_escape" op;
                severity = Error;
                addr = Some a.addr;
                detail =
                  Printf.sprintf
                    "%s address %s is provably outside every granted window"
                    op (pp_ivl a.target);
              };
            ]
        | Absint.May_escape ->
            [
              {
                rule = Printf.sprintf "mem.%s_may_escape" op;
                severity = Warn;
                addr = Some a.addr;
                detail =
                  Printf.sprintf
                    "%s address %s cannot be proven inside the granted windows"
                    op (pp_ivl a.target);
              };
            ]
      in
      let taint =
        if a.tainted then
          [
            {
              rule = "sidechannel.taint_addr";
              severity = Error;
              addr = Some a.addr;
              detail =
                Printf.sprintf
                  "%s address is derived from rdcycle — cache-probe shape" op;
            };
          ]
        else []
      in
      escape @ taint)
    accesses

let branch_taint_findings (branches : Absint.branch_taint list) =
  List.map
    (fun (b : Absint.branch_taint) ->
      {
        rule = "sidechannel.taint_branch";
        severity = Error;
        addr = Some b.addr;
        detail =
          Printf.sprintf
            "branch condition r%d is derived from rdcycle — timing-leak shape"
            b.reg;
      })
    branches

let loop_primitive_findings (cfg : Cfg.t) =
  let acc = ref [] in
  for addr = cfg.code_words - 1 downto 0 do
    if cfg.reachable.(addr) && cfg.in_loop.(addr) then
      match cfg.instrs.(addr) with
      | Some (Isa.Clflush _) ->
          acc :=
            {
              rule = "sidechannel.flush_reload_loop";
              severity = Error;
              addr = Some addr;
              detail = "clflush inside a loop — flush+reload probe shape";
            }
            :: !acc
      | Some (Isa.Rdcycle _) ->
          acc :=
            {
              rule = "sidechannel.rdcycle_loop";
              severity = Info;
              addr = Some addr;
              detail = "repeated cycle-counter sampling inside a loop";
            }
            :: !acc
      | _ -> ()
  done;
  !acc

(* Try to bound the trip count of the SCC holding a doorbell.  The
   recognised shape is a counting loop: a branch whose loop-continuing
   condition is [cnt < bound] where [bound]'s interval has a finite
   upper end, [cnt] is non-negative at the branch, and every definition
   of [cnt] inside the SCC adds at least 1.  Anything else is treated
   as unbounded. *)
let scc_trip_bound (cfg : Cfg.t) (absint : Absint.result) scc members =
  ignore scc;
  let in_scc a = List.mem a members in
  let defs_monotonic cnt =
    List.for_all
      (fun a ->
        match cfg.instrs.(a) with
        | Some (Isa.Add (rd, rs1, rs2)) when rd = cnt -> (
            match absint.Absint.pre.(a) with
            | None -> false
            | Some pre ->
                let step_of other =
                  let v = pre.(other) in
                  v.Absint.ivl.Absint.lo >= 1
                in
                if rs1 = cnt then step_of rs2
                else if rs2 = cnt then step_of rs1
                else false)
        | Some
            ( Isa.Movi (rd, _) | Isa.Movhi (rd, _) | Isa.Mov (rd, _)
            | Isa.Sub (rd, _, _) | Isa.Mul (rd, _, _) | Isa.Div (rd, _, _)
            | Isa.Rem (rd, _, _) | Isa.And_ (rd, _, _) | Isa.Or_ (rd, _, _)
            | Isa.Xor_ (rd, _, _) | Isa.Shl (rd, _, _) | Isa.Shr (rd, _, _)
            | Isa.Load (rd, _, _) | Isa.Jal (rd, _) | Isa.Mfepc rd
            | Isa.Rdcycle rd )
          when rd = cnt ->
            false
        | _ -> true)
      members
  in
  let bound_at addr cnt bound =
    match absint.Absint.pre.(addr) with
    | None -> None
    | Some pre ->
        let c = pre.(cnt).Absint.ivl and b = pre.(bound).Absint.ivl in
        if c.Absint.lo >= 0 && b.Absint.hi <> max_int && defs_monotonic cnt
        then Some b.Absint.hi
        else None
  in
  List.filter_map
    (fun addr ->
      match cfg.instrs.(addr) with
      | Some (Isa.Blt (cnt, bound, taken)) ->
          (* continue while cnt < bound: taken edge stays in the loop *)
          if in_scc taken && not (in_scc (addr + 1)) then
            bound_at addr cnt bound
          else None
      | Some (Isa.Bge (cnt, bound, taken)) ->
          (* continue while cnt < bound: fallthrough stays in the loop *)
          if in_scc (addr + 1) && not (in_scc taken) then
            bound_at addr cnt bound
          else None
      | _ -> None)
    members
  |> function
  | [] -> None
  | bounds -> Some (List.fold_left min max_int bounds)

(* The largest statically-bounded doorbell count one guest may ring. *)
let max_doorbell_burst = 64

let doorbell_findings (cfg : Cfg.t) (absint : Absint.result) =
  (* Group reachable loop members by SCC. *)
  let by_scc = Hashtbl.create 7 in
  for addr = cfg.code_words - 1 downto 0 do
    if cfg.reachable.(addr) && cfg.in_loop.(addr) then begin
      let scc = cfg.scc_id.(addr) in
      let members = try Hashtbl.find by_scc scc with Not_found -> [] in
      Hashtbl.replace by_scc scc (addr :: members)
    end
  done;
  Hashtbl.fold
    (fun scc members acc ->
      let irqs =
        List.filter
          (fun a ->
            match cfg.instrs.(a) with Some (Isa.Irq _) -> true | _ -> false)
          members
      in
      match irqs with
      | [] -> acc
      | first :: _ -> (
          let site = List.fold_left min first irqs in
          let per_iter = List.length irqs in
          match scc_trip_bound cfg absint scc members with
          | Some trips when trips * per_iter <= max_doorbell_burst ->
              {
                rule = "doorbell.bounded";
                severity = Info;
                addr = Some site;
                detail =
                  Printf.sprintf
                    "doorbell loop bounded at %d rings (budget %d)"
                    (trips * per_iter) max_doorbell_burst;
              }
              :: acc
          | Some trips ->
              {
                rule = "doorbell.storm";
                severity = Error;
                addr = Some site;
                detail =
                  Printf.sprintf
                    "doorbell loop rings up to %d times — exceeds the \
                     admission budget of %d"
                    (trips * per_iter) max_doorbell_burst;
              }
              :: acc
          | None ->
              {
                rule = "doorbell.storm";
                severity = Error;
                addr = Some site;
                detail =
                  "doorbell inside a loop with no provable trip bound — \
                   interrupt-storm shape";
              }
              :: acc))
    by_scc []

(* Whole-program doorbell budget: the sum over every reachable [Irq]
   site of its statically-provable ring count — trip bound × rings per
   iteration for loop residents, one ring for straight-line sites.
   [None] the moment any looping site has no provable bound; such a
   guest is already rejected solo ([doorbell.storm]), so admitted
   guests always summarize to [Some].  This is the per-guest term the
   co-admission pass sums across a roster: two guests (or two loops)
   each under the per-loop budget can still exceed it together. *)
let doorbell_total_bound ~(cfg : Cfg.t) ~(absint : Absint.result) =
  (* Full membership of every reachable loop SCC: the trip-bound pattern
     match needs the loop's counter updates and back edge, not just its
     Irq sites. *)
  let by_scc = Hashtbl.create 7 in
  let straight_line = ref 0 in
  for addr = cfg.code_words - 1 downto 0 do
    if cfg.reachable.(addr) then begin
      (match cfg.instrs.(addr) with
      | Some (Isa.Irq _) when not cfg.in_loop.(addr) -> incr straight_line
      | _ -> ());
      if cfg.in_loop.(addr) then begin
        let scc = cfg.scc_id.(addr) in
        let members =
          match Hashtbl.find_opt by_scc scc with Some m -> m | None -> []
        in
        Hashtbl.replace by_scc scc (addr :: members)
      end
    end
  done;
  Hashtbl.fold
    (fun scc members acc ->
      match acc with
      | None -> None
      | Some total -> (
          let irqs =
            List.length
              (List.filter
                 (fun a ->
                   match cfg.instrs.(a) with
                   | Some (Isa.Irq _) -> true
                   | _ -> false)
                 members)
          in
          if irqs = 0 then Some total
          else
            match scc_trip_bound cfg absint scc members with
            | Some trips -> Some (total + (trips * irqs))
            | None -> None))
    by_scc (Some !straight_line)

let structure_findings (cfg : Cfg.t) =
  let jump_escapes =
    List.map
      (fun (addr, target) ->
        {
          rule = "cfg.jump_escape";
          severity = Error;
          addr = Some addr;
          detail =
            Printf.sprintf "jump targets address %d outside the code pages"
              target;
        })
      cfg.jump_escapes
  in
  let unresolved =
    List.map
      (fun addr ->
        {
          rule = "cfg.unresolved_indirect";
          severity = Warn;
          addr = Some addr;
          detail = "indirect jump target could not be resolved statically";
        })
      cfg.unresolved_jr
  in
  let vector_escapes =
    List.map
      (fun (slot, handler) ->
        {
          rule = "cfg.vector_escape";
          severity = Warn;
          addr = None;
          detail =
            Printf.sprintf
              "vector slot %d installs handler %d outside the code pages" slot
              handler;
        })
      cfg.vector_escapes
  in
  let poisoned =
    List.map
      (fun addr ->
        {
          rule = "hygiene.undecodable_reachable";
          severity = Warn;
          addr = Some addr;
          detail = "reachable word does not decode — executing it traps";
        })
      cfg.poisoned
  in
  let fall_off =
    List.map
      (fun addr ->
        {
          rule = "hygiene.fall_off_code";
          severity = Warn;
          addr = Some addr;
          detail = "execution can fall off the end of the code pages";
        })
      cfg.fall_off_code
  in
  (* Unreachable code: only non-Nop words inside the image (zero-filled
     DRAM and padding decode as Nop) and outside the vector table, whose
     words are data that may happen to decode. *)
  let in_vector_table addr =
    addr >= Isa.vector_base && addr < Isa.vector_base + Isa.vector_count
  in
  let unreachable = ref [] in
  for addr = cfg.origin + cfg.image_words - 1 downto cfg.origin do
    if
      addr >= 0 && addr < cfg.code_words
      && (not cfg.reachable.(addr))
      && not (in_vector_table addr)
    then
      match cfg.instrs.(addr) with
      | Some i when i <> Isa.Nop ->
          unreachable :=
            {
              rule = "hygiene.unreachable";
              severity = Info;
              addr = Some addr;
              detail = Printf.sprintf "unreachable: %s" (Isa.to_string i);
            }
            :: !unreachable
      | _ -> ()
  done;
  let halts =
    let found = ref false in
    Array.iteri
      (fun addr r ->
        if r && cfg.instrs.(addr) = Some Isa.Halt then found := true)
      cfg.reachable;
    if !found then []
    else
      [
        {
          rule = "hygiene.no_halt";
          severity = Warn;
          addr = None;
          detail = "no reachable halt — the guest never terminates on its own";
        };
      ]
  in
  jump_escapes @ unresolved @ vector_escapes @ poisoned @ fall_off
  @ !unreachable @ halts

let run ~cfg ~absint =
  let findings =
    access_findings absint.Absint.accesses
    @ branch_taint_findings absint.Absint.tainted_branches
    @ loop_primitive_findings cfg
    @ doorbell_findings cfg absint
    @ structure_findings cfg
  in
  List.sort
    (fun a b ->
      let ka = (Option.value a.addr ~default:max_int, a.rule, a.detail) in
      let kb = (Option.value b.addr ~default:max_int, b.rule, b.detail) in
      compare ka kb)
    findings

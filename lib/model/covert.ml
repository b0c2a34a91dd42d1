module Hierarchy = Guillotine_memory.Hierarchy
module Cache = Guillotine_memory.Cache

type result = {
  sent : bool list;
  recovered : bool list;
  accuracy : float;
  cycles : int;
  bits_per_kilocycle : float;
}

let finish sent recovered cycles =
  let accuracy = Guillotine_util.Bits.accuracy sent recovered in
  let n = float_of_int (List.length sent) in
  (* Goodput above guessing: 2*(acc-0.5) correct-information fraction. *)
  let effective = Float.max 0.0 (2.0 *. (accuracy -. 0.5)) *. n in
  {
    sent;
    recovered;
    accuracy;
    cycles;
    bits_per_kilocycle = (if cycles = 0 then 0.0 else 1000.0 *. effective /. float_of_int cycles);
  }

let prime_probe ~sender ~receiver ?(target_set = 3) ?(sender_set_offset = 0) bits =
  let l1 = Hierarchy.l1 receiver in
  let cfg = Cache.config l1 in
  let line = cfg.Cache.line_words in
  let stride = cfg.Cache.sets * line in
  (* Receiver's priming lines and sender's (distinct) eviction lines all
     map to [target_set]. *)
  let prime_addr k = (target_set * line) + (k * stride) in
  (* With set partitioning, the sender's accesses land [sender_set_offset]
     sets away and never collide with the receiver's lines. *)
  let evict_addr k =
    ((target_set + sender_set_offset) mod cfg.Cache.sets * line)
    + ((cfg.Cache.ways + k) * stride)
  in
  let cycles = ref 0 in
  let prime () =
    for k = 0 to cfg.Cache.ways - 1 do
      cycles := !cycles + Hierarchy.touch receiver ~addr:(prime_addr k)
    done
  in
  let send bit =
    if bit then
      for k = 0 to cfg.Cache.ways - 1 do
        cycles := !cycles + Hierarchy.touch sender ~addr:(evict_addr k)
      done
  in
  let probe () =
    let total = ref 0 in
    for k = 0 to cfg.Cache.ways - 1 do
      total := !total + Hierarchy.touch receiver ~addr:(prime_addr k)
    done;
    cycles := !cycles + !total;
    !total
  in
  (* All-hit probe costs ways * hit_cost; any eviction adds at least one
     miss.  Split the difference. *)
  let threshold = (cfg.Cache.ways * cfg.Cache.hit_cost) + (cfg.Cache.miss_cost / 2) in
  let recovered =
    List.map
      (fun bit ->
        prime ();
        send bit;
        probe () > threshold)
      bits
  in
  finish bits recovered !cycles

let branch_predictor ~sender ~receiver ?(probe_pc = 0x40) bits =
  let module Bpred = Guillotine_microarch.Core.Bpred in
  let cycles = ref 0 in
  let train b taken =
    (* A few iterations saturate the 2-bit counter. *)
    for _ = 1 to 3 do
      cycles := !cycles + Bpred.predict_and_update b ~pc:probe_pc ~taken
    done
  in
  let recovered =
    List.map
      (fun bit ->
        train sender bit;
        (* The receiver's branch is never taken; a mispredict means the
           shared counter was trained toward taken — bit 1. *)
        let cost = Bpred.predict_and_update receiver ~pc:probe_pc ~taken:false in
        cycles := !cycles + cost;
        (* Undo the probe's own training so the next bit starts clean on
           the receiver's side (the sender re-trains anyway). *)
        cost > 1)
      bits
  in
  finish bits recovered !cycles

let flush_reload ~sender ~receiver ~shared_addr bits =
  let l1 = Hierarchy.l1 receiver in
  let cfg = Cache.config l1 in
  let cycles = ref 0 in
  let recovered =
    List.map
      (fun bit ->
        (* Receiver evicts the shared line everywhere it can see. *)
        Hierarchy.flush_line receiver ~addr:shared_addr;
        (* Sender touches it (or not). *)
        if bit then cycles := !cycles + Hierarchy.touch sender ~addr:shared_addr;
        (* Receiver reloads and times: fast = sender touched it. *)
        let t = Hierarchy.touch receiver ~addr:shared_addr in
        cycles := !cycles + t;
        t <= cfg.Cache.hit_cost)
      bits
  in
  finish bits recovered !cycles

type mode = Trap_and_emulate | Sriov

let visibility = function Trap_and_emulate -> true | Sriov -> false

let vm_exit_cost = 1200
let emulate_cost_per_word = 10
let sriov_doorbell_cost = 50

let nested_walk_refs = 24
let flat_walk_refs = 4

type t = {
  mode : mode;
  mutable exits : int;
  mutable cycles : int;
  mutable observed : int;
}

let create ~mode () = { mode; exits = 0; cycles = 0; observed = 0 }

let guest_device_request t ~device ~now request =
  let response = device.Guillotine_devices.Device.handle ~now request in
  let words =
    Array.length request + Array.length response.Guillotine_devices.Device.payload
  in
  let cost =
    match t.mode with
    | Trap_and_emulate ->
      t.exits <- t.exits + 1;
      t.observed <- t.observed + 1;
      vm_exit_cost + (emulate_cost_per_word * words)
    | Sriov -> sriov_doorbell_cost
  in
  t.cycles <- t.cycles + cost;
  (response, cost)

let vm_exits t = t.exits
let cycles t = t.cycles
let observed_requests t = t.observed

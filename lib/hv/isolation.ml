type level = Standard | Probation | Severed | Offline | Decapitation | Immolation

let all = [ Standard; Probation; Severed; Offline; Decapitation; Immolation ]

let to_string = function
  | Standard -> "standard"
  | Probation -> "probation"
  | Severed -> "severed"
  | Offline -> "offline"
  | Decapitation -> "decapitation"
  | Immolation -> "immolation"

let of_string s =
  match String.lowercase_ascii s with
  | "standard" -> Some Standard
  | "probation" -> Some Probation
  | "severed" -> Some Severed
  | "offline" -> Some Offline
  | "decapitation" -> Some Decapitation
  | "immolation" -> Some Immolation
  | _ -> None

let strictness = function
  | Standard -> 0
  | Probation -> 1
  | Severed -> 2
  | Offline -> 3
  | Decapitation -> 4
  | Immolation -> 5

let software_may_transition ~from ~target = strictness target > strictness from

let reversible = function
  | Standard | Probation | Severed | Offline -> true
  | Decapitation | Immolation -> false

let ports_allowed = function
  | Standard -> `All
  | Probation -> `Restricted
  | Severed | Offline | Decapitation | Immolation -> `None

let cores_powered = function
  | Standard | Probation | Severed -> true
  | Offline | Decapitation | Immolation -> false

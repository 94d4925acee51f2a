#include "service/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.hpp"
#include "util/json_string.hpp"

namespace rsb::service {

namespace {
constexpr std::size_t kMaxLineBytes = 1 << 20;
}

void Client::connect(int port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw Error("rsb client: socket() failed: " +
                std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string reason = std::strerror(errno);
    close();
    throw Error("rsb client: cannot connect to 127.0.0.1:" +
                std::to_string(port) + ": " + reason);
  }
}

void Client::send_line(const std::string& line) {
  if (fd_ < 0) throw Error("rsb client: not connected");
  std::string framed = line;
  framed += '\n';
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      close();
      throw Error("rsb client: connection lost while sending");
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::optional<std::string> Client::read_line() {
  while (true) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    if (fd_ < 0) return std::nullopt;
    if (buffer_.size() > kMaxLineBytes) {
      throw Error("rsb client: response line exceeds 1 MiB");
    }
    char scratch[4096];
    const ssize_t n = ::recv(fd_, scratch, sizeof(scratch), 0);
    if (n == 0) {
      close();
      return std::nullopt;  // an unterminated fragment at EOF is dropped
    }
    if (n < 0) {
      const std::string reason = std::strerror(errno);
      close();
      throw Error("rsb client: read error: " + reason);
    }
    buffer_.append(scratch, static_cast<std::size_t>(n));
  }
}

std::string Client::request(const std::string& line) {
  send_line(line);
  auto reply = read_line();
  if (!reply) throw Error("rsb client: server closed the connection");
  return *reply;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string submit_request(const std::string& spec_text) {
  std::string out = "{\"op\":\"submit\",\"spec\":";
  append_json_string(out, spec_text);
  out += "}";
  return out;
}

}  // namespace rsb::service
